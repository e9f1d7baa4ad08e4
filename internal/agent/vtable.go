package agent

import (
	"math/bits"

	"elga/internal/algorithm"
	"elga/internal/graph"
)

const (
	recUsed       uint8 = 1 << iota // the slot holds a key, and does until a rebuild
	recValue                        // value is the vertex's algorithm state
	recRegistered                   // announced to the vertex's master as held here (registerSplit)
)

// The sets a record can be in.
const (
	setActive = iota // what the next compute phase processes
	setWork          // the work list of the phase being run
)

// vertexRec is one inline table cell (24 B, no pointers): what the agent
// knows about one vertex beyond its edges. It is in set k while its gen[k]
// is the table's. view caches router.Split and router.IsReplica for this
// agent: the two low bits are the answers, the rest the stamp they were
// taken under, good while the stamp is the table's (Agent.placement). It
// stays out of flags, so holds and reclamation ignore it.
type vertexRec struct {
	key   graph.VertexID
	value algorithm.Word
	gen   [2]uint16
	flags uint8
	view  uint16
}

// The bits of vertexRec.view that hold the cached answers; the stamp is the
// other 14.
const (
	viewSplit   = 1 << iota // router.Split
	viewReplica             // router.IsReplica for this agent
	viewAnswers = viewSplit | viewReplica
)

// vertexTable maps vertices to their records — the same table as the route
// table and aggTable: power-of-two slots probed linearly from a multiply-shift
// of the key, never more than half full. A set is a generation plus the list
// of member slots in the order they joined, so emptying one is O(1), walking
// one costs its size, and that order is a function of the calls made, not of
// a map seed. Indices stay good until the next insertion.
//
// Everything belongs to the event loop except find and reads of slots[i]:
// phase workers are handed slot indices and only read.
type vertexTable struct {
	slots []vertexRec
	shift uint8
	used  int // slots holding a key, records that hold nothing included
	gen   [2]uint16
	list  [2][]uint32
	view  uint16 // the current view stamp, shifted past viewAnswers; never 0 once built
	// layout counts rebuilds: a slot index taken under one reading names
	// the same record while it stands.
	layout uint32
	mail   slotMail
	// peers caches, per sending peer's address, the slots acceptAggs
	// resolved for that peer's last frame of aggregates (peerSlots).
	peers map[string]*peerSlots
}

// peerSlots is what acceptAggs resolved of one peer's last frame of
// aggregates into slot mail, position by position: the target and its slot,
// entered only once the record's replica bit said this agent serves it. A
// dense sender folds along a plan whose target order stands while the plan
// does, so the next frame's targets are compared with the cached keys in
// order and probed only where they differ. The entries hold while the table's
// layout and view stamp are the ones they were taken under.
type peerSlots struct {
	layout uint32
	view   uint16
	keys   []graph.VertexID
	slots  []uint32
}

// peerSlots returns the slot cache of the peer at from, emptied if the
// table moved or a view was installed since it was filled; nil for no peer.
func (t *vertexTable) peerSlots(from string) *peerSlots {
	if from == "" {
		return nil
	}
	c := t.peers[from]
	if c == nil {
		if t.peers == nil {
			t.peers = map[string]*peerSlots{}
		}
		c = &peerSlots{}
		t.peers[from] = c
	}
	if c.layout != t.layout || c.view != t.view {
		c.layout, c.view = t.layout, t.view
		c.keys, c.slots = c.keys[:0], c.slots[:0]
	}
	return c
}

// at returns the cached slot of v at position k, if v is what the cache
// holds there.
func (c *peerSlots) at(k int, v graph.VertexID) (uint32, bool) {
	if c != nil && k < len(c.keys) && c.keys[k] == v {
		return c.slots[k], true
	}
	return 0, false
}

// put caches v's slot i at position k: in place, or at the end if k is
// where the cache ends.
func (c *peerSlots) put(k int, v graph.VertexID, i uint32) {
	switch {
	case c == nil:
	case k < len(c.keys):
		c.keys[k], c.slots[k] = v, i
	case k == len(c.keys):
		c.keys, c.slots = append(c.keys, v), append(c.slots, i)
	}
}

// slotMail is one step's mailbox held by vertex-table slot instead of in an
// aggTable, while a dense run's plan stands (Agent.openMail): the same
// entries, aggregate bits and first-arrival order the step's table would
// hold, reached through the target's record rather than a second hash
// probe. It holds no raw and no dead entries, and a rebuild carries it
// along with the records. Its arrays are allocated when a dense run first
// opens it and dropped with the plan (Agent.trimDense).
type slotMail struct {
	open  bool
	step  uint32
	agg   []algorithm.Word // by slot
	has   []uint64         // which slots hold an entry
	order []uint32         // those slots, in first-arrival order
}

// holds reports whether the slot at i has an entry.
func (m *slotMail) holds(i uint32) bool { return m.has[i/64]&(1<<(i%64)) != 0 }

// add enters slot i, reporting whether it was fresh.
func (m *slotMail) add(i uint32) bool {
	if m.holds(i) {
		return false
	}
	m.has[i/64] |= 1 << (i % 64)
	m.order = append(m.order, i)
	return true
}

// merge combines an aggregate some sender already gathered into slot i's
// entry: aggTable.merge under a run. sum says prog is a FloatSum, whose
// MergeAgg is one float64 addition, made here without the call.
func (m *slotMail) merge(prog algorithm.Program, sum bool, i uint32, agg algorithm.Word) {
	switch {
	case m.add(i):
		m.agg[i] = agg
	case sum:
		m.agg[i] = algorithm.FromF64(m.agg[i].F64() + agg.F64())
	default:
		m.agg[i] = prog.MergeAgg(m.agg[i], agg)
	}
}

// eager returns slot i's aggregate for gathering into, ZeroAgg if fresh:
// aggTable.eager.
func (m *slotMail) eager(prog algorithm.Program, i uint32) *algorithm.Word {
	if m.add(i) {
		m.agg[i] = prog.ZeroAgg()
	}
	return &m.agg[i]
}

// size fits the arrays to a table of n slots, every entry gone.
func (m *slotMail) size(n int) {
	if len(m.agg) != n {
		m.agg, m.has = make([]algorithm.Word, n), make([]uint64, (n+63)/64)
	}
}

// close empties the mail, keeping its arrays.
func (m *slotMail) close() {
	for _, i := range m.order {
		m.has[i/64] = 0
	}
	m.order = m.order[:0]
	m.open = false
}

// probe returns the slot holding v, or the empty one that ends its probe run.
func (t *vertexTable) probe(v graph.VertexID) (i uint64, found bool) {
	mask := uint64(len(t.slots) - 1)
	for i = (uint64(v) * fib) >> t.shift; ; i = (i + 1) & mask {
		if r := &t.slots[i]; r.flags == 0 || r.key == v {
			return i, r.flags != 0
		}
	}
}

// find returns the index of v's record, or -1.
func (t *vertexTable) find(v graph.VertexID) int {
	if len(t.slots) > 0 {
		if i, ok := t.probe(v); ok {
			return int(i)
		}
	}
	return -1
}

// at returns the index of v's record, adding one that holds nothing if v has
// none; adding may rebuild the table, which moves every record.
func (t *vertexTable) at(v graph.VertexID) uint32 {
	if i := t.find(v); i >= 0 {
		return uint32(i)
	}
	if 2*(t.used+1) > len(t.slots) {
		t.rebuild()
	}
	i, _ := t.probe(v)
	t.slots[i] = vertexRec{key: v, flags: recUsed}
	t.used++
	return uint32(i)
}

// holds reports whether r carries anything a rebuild must keep.
func (t *vertexTable) holds(r *vertexRec) bool {
	return r.flags&^recUsed != 0 || r.gen[setActive] == t.gen[setActive] || r.gen[setWork] == t.gen[setWork]
}

// rebuild moves the records that hold something into fresh slots at most 3/8
// full and repoints the set lists and open slot mail at them. Records that
// hold nothing — what del leaves of a departed vertex, work vertices that
// never got a state — are dropped unless they have mail, so the table is sized
// by what is live, whatever passed through it.
func (t *vertexTable) rebuild() {
	for k, g := range t.gen {
		if g == 0 {
			t.gen[k] = 1 // the first build: a zero stamp is in no set
		}
	}
	if t.view == 0 {
		t.view = viewAnswers + 1 // nor is a zero view stamp current
	}
	t.layout++
	old, live, m := t.slots, 0, &t.mail
	keep := func(i int) bool { return t.holds(&old[i]) || m.open && m.holds(uint32(i)) }
	for i := range old {
		if keep(i) {
			live++
		}
	}
	n := 64
	for 8*(live+1) > 3*n {
		n *= 2
	}
	t.slots, t.used = make([]vertexRec, n), live
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if keep(i) {
			j, _ := t.probe(old[i].key)
			t.slots[j] = old[i]
		}
	}
	if m.open {
		agg := m.agg
		m.agg, m.has = nil, nil
		m.size(n)
		for k, oi := range m.order {
			j := uint32(t.find(old[oi].key))
			m.has[j/64] |= 1 << (j % 64)
			m.agg[j], m.order[k] = agg[oi], j
		}
	}
	for k := range t.list {
		kept := t.list[k][:0]
		for _, oi := range t.list[k] {
			if r := &old[oi]; r.gen[k] == t.gen[k] { // still a member
				kept = append(kept, uint32(t.find(r.key)))
			}
		}
		t.list[k] = kept
	}
}

// get returns v's state, if it has one.
func (t *vertexTable) get(v graph.VertexID) (algorithm.Word, bool) {
	if i := t.find(v); i >= 0 && t.slots[i].flags&recValue != 0 {
		return t.slots[i].value, true
	}
	return 0, false
}

// set installs v's state.
func (t *vertexTable) set(v graph.VertexID, w algorithm.Word) { t.setAt(t.at(v), w) }

func (t *vertexTable) setAt(i uint32, w algorithm.Word) {
	r := &t.slots[i]
	r.value, r.flags = w, r.flags|recValue
}

// del forgets everything about v. Its record stays in place, holding nothing,
// until the next rebuild.
func (t *vertexTable) del(v graph.VertexID) {
	if i := t.find(v); i >= 0 {
		t.slots[i] = vertexRec{key: v, flags: recUsed}
	}
}

// each calls fn for every vertex that has a state.
func (t *vertexTable) each(fn func(v graph.VertexID, w algorithm.Word)) {
	for i := range t.slots {
		if r := &t.slots[i]; r.flags&recValue != 0 {
			fn(r.key, r.value)
		}
	}
}

// flag reports whether v's record carries f.
func (t *vertexTable) flag(v graph.VertexID, f uint8) bool {
	i := t.find(v)
	return i >= 0 && t.slots[i].flags&f != 0
}

// drop takes f off every record: recValue when a from-scratch run discards
// all state, recRegistered when mastership moved with the membership.
func (t *vertexTable) drop(f uint8) {
	for i := range t.slots {
		t.slots[i].flags &^= f
	}
}

// begin empties set k.
func (t *vertexTable) begin(k int) {
	t.list[k] = t.list[k][:0]
	if t.gen[k]++; t.gen[k] == 0 {
		// Wrapped: records stamped 2^16 begins ago would be members again.
		for i := range t.slots {
			t.slots[i].gen[k] = 0
		}
		t.gen[k] = 1
	}
}

// restamp makes every record's cached answers, and every peer's cached
// slots, stale: the router installed a view. The stamp has 14 bits; when it
// wraps, every record is cleared and the peers' caches dropped.
func (t *vertexTable) restamp() {
	if t.view += viewAnswers + 1; t.view == 0 {
		for i := range t.slots {
			t.slots[i].view = 0
		}
		t.view, t.peers = viewAnswers+1, nil
	}
}

// mark puts the record at i in set k, once.
func (t *vertexTable) mark(k int, i uint32) {
	if r := &t.slots[i]; r.gen[k] != t.gen[k] {
		r.gen[k] = t.gen[k]
		t.list[k] = append(t.list[k], i)
	}
}

// in reports whether the record at i is in set k. A list may still name a
// record that left its set (del), twice if it joined again; walkers check,
// and mark as they go where a repeat would matter.
func (t *vertexTable) in(k int, i uint32) bool { return t.slots[i].gen[k] == t.gen[k] }
