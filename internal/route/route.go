// Package route implements the Participant-side lookup of Figure 3: every
// Participant combines the latest directory view (membership + sketch)
// with the cluster configuration to resolve which agent owns any edge or
// vertex. The first lookup of a vertex under a view costs O(1) expected — a
// ring bucket, and the sketch only when some vertex can split — against
// O(P + d·w) state; every later one is a probe of the route table.
package route

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/sketch"
	"elga/internal/wire"
)

const (
	// fib is the 64-bit Fibonacci multiplier: the top bits of v*fib spread
	// consecutive vertex IDs evenly over a power-of-two table.
	fib      = 0x9e3779b97f4a7c15
	minSlots = 64 // table size before anything is looked up
	// A slot value is index<<2 | valSide? | valSet; zero is an empty slot.
	valSet  = 1
	valSide = 2 // index is into the side slice, not the member list
)

// vertexRoute is the outcome of the two-level lookup of Figure 3 for one
// vertex under one view: its replica count k (sketch estimate pushed
// through the replication policy, capped by the ring size), its replica
// set (index 0 is the master) and each replica's index into the ring's
// member list. Immutable once published. Only a vertex that is split, or
// looked up on an empty ring, owns one; see Router.unsplit for the rest. An
// agent's scatter does not come here per message: it keeps EdgeOwnerIndex's
// answer per sealed edge for as long as the view stands (agent.routePlan),
// so the hop through the side slice is paid once per edge per epoch.
type vertexRoute struct {
	k   int
	set []consistent.AgentID
	at  []int32
}

// slot is one 16-byte route-table entry. For an unsplit vertex val carries
// the owner's member index inline; otherwise it indexes the side slice. A
// fill writes key and then stores val, so a reader whose atomic load of
// val is non-zero also sees the key; no published slot is rewritten while
// a reader may run.
type slot struct {
	key uint64
	val atomic.Uint64
}

// table is a power-of-two array of slots probed linearly from a
// multiply-shift of the vertex ID. It is never more than half full (≤ 64
// bytes a vertex), so probe runs are short and end, at the vertex or at
// an empty slot.
type table struct {
	slots []slot
	shift uint // 64 - log2(len(slots))
}

// newTable returns an empty table with room for n vertices.
func newTable(n int) *table {
	s := minSlots
	for n > s/2 {
		s *= 2
	}
	return &table{slots: make([]slot, s), shift: uint(64 - bits.Len(uint(s-1)))}
}

// probe returns v's slot — the one holding it, or the empty one where it
// belongs — and that slot's value (zero if empty).
func (t *table) probe(v graph.VertexID) (*slot, uint64) {
	mask := uint64(len(t.slots) - 1)
	for i := (uint64(v) * fib) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		val := s.val.Load()
		if val == 0 || s.key == uint64(v) {
			return s, val
		}
	}
}

// Router resolves edge and vertex ownership under one directory view. It is
// mutated only by its owner's event loop (Update), never while a lookup is in
// flight. Lookups are safe from several goroutines at once, though no owner
// issues them so: ring, sketch and addresses are immutable between Updates,
// a hit reads the route table without a lock, and a miss fills it under mu.
type Router struct {
	cfg     config.Config
	epoch   uint64
	batch   uint64
	n       uint64
	ring    *consistent.Ring
	members []consistent.AgentID // ring.Members()
	sk      *sketch.Sketch
	addrs   map[uint64]string
	// limit is the replication threshold in force under the installed
	// sketch and ring; canSplit is false when no vertex can reach it (the
	// sketch's bound is under it), so every vertex has one replica.
	limit    uint64
	canSplit bool

	// tab holds every vertex looked up since the last wholesale install;
	// nothing is ever evicted, which is what makes Rerouted complete. side
	// holds the routes that slots refer to by index. mu serialises fills
	// and growth; count (filled slots) belongs to whoever holds it.
	mu      sync.Mutex
	tab     atomic.Pointer[table]
	side    atomic.Pointer[[]*vertexRoute]
	count   int
	unsplit []vertexRoute // per member: the route of a vertex it alone owns

	// rerouted and sketchOnly describe the last Update (see Rerouted).
	rerouted   []graph.VertexID
	sketchOnly bool
}

// New creates a Router with an empty view.
func New(cfg config.Config) *Router {
	r := &Router{
		cfg:   cfg,
		ring:  consistent.New(nil, consistent.Options{Virtual: cfg.Virtual, Hash: cfg.Hash}),
		sk:    cfg.NewSketch(),
		addrs: map[uint64]string{},
	}
	r.resetTable()
	return r
}

// resetTable installs an empty table, sized for as many vertices as the
// one it replaces held: the same vertices are about to be looked up again.
func (r *Router) resetTable() {
	r.tab.Store(newTable(r.count))
	r.side.Store(new([]*vertexRoute))
	r.count = 0
}

// replicas is v's replica count under the installed sketch and ring. While
// nothing can split it is 1 without a sketch read: every estimate is at most
// the sketch's bound, under the threshold, where Replicas answers 1.
func (r *Router) replicas(v graph.VertexID) int {
	if !r.canSplit {
		return 1
	}
	n := r.ring.Size()
	k := sketch.Replicas(r.sk.Estimate(uint64(v)), r.limit, r.cfg.MaxReplicas)
	if k > n && n > 0 {
		k = n
	}
	return k
}

// settle derives limit and canSplit from the installed sketch and ring.
func (r *Router) settle() {
	r.limit = r.threshold(r.sk.Count())
	r.canSplit = r.limit > 0 && r.cfg.MaxReplicas > 1 && r.sk.Bound() >= r.limit
}

// CanSplit reports whether any vertex may be split under the installed
// view. False means every vertex has exactly one replica.
func (r *Router) CanSplit() bool { return r.canSplit }

// threshold is the replication threshold at a sketch total under the
// installed membership.
func (r *Router) threshold(total uint64) uint64 { return r.cfg.Threshold(total, r.ring.Size()) }

// computeRoute resolves v's routing entry directly from the sketch and
// ring, bypassing the table. It is the fill path and the reference the
// table is tested against.
func (r *Router) computeRoute(v graph.VertexID) *vertexRoute {
	k := r.replicas(v)
	if k <= 1 {
		if i, ok := r.ring.OwnerIndexOfVertex(uint64(v)); ok {
			return &r.unsplit[i]
		}
	}
	rt := &vertexRoute{k: k, at: r.ring.ReplicaIndexesInto(uint64(v), k, make([]int32, 0, min(k, len(r.members))))}
	rt.set = make([]consistent.AgentID, len(rt.at))
	for i, j := range rt.at {
		rt.set[i] = r.members[j]
	}
	return rt
}

// lookup returns v's route from the table, filling it on a miss: the
// owner's member index when v is unsplit (rt is nil), else v's side entry.
func (r *Router) lookup(v graph.VertexID) (owner int, rt *vertexRoute) {
	_, val := r.tab.Load().probe(v)
	if val == 0 {
		val = r.fill(v)
	}
	if val&valSide != 0 {
		return 0, (*r.side.Load())[val>>2]
	}
	return int(val >> 2), nil
}

// routeOf is lookup with an unsplit vertex's route materialized.
func (r *Router) routeOf(v graph.VertexID) *vertexRoute {
	i, rt := r.lookup(v)
	if rt == nil {
		rt = &r.unsplit[i]
	}
	return rt
}

// fill resolves v and publishes it, re-probing the current table under mu:
// another goroutine may have published v, or grown the table, since the
// caller's lock-free miss.
func (r *Router) fill(v graph.VertexID) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tab.Load()
	s, val := t.probe(v)
	if val != 0 {
		return val
	}
	if r.count >= len(t.slots)/2 {
		s, _ = r.rebuild(t, false).probe(v)
	}
	if rt := r.computeRoute(v); rt.k <= 1 && len(rt.at) == 1 {
		val = uint64(rt.at[0])<<2 | valSet
	} else {
		val = r.addSide(rt)
	}
	s.key = uint64(v)
	s.val.Store(val)
	r.count++
	return val
}

// addSide appends rt to the side slice and returns the slot value that
// refers to it. The longer slice header is stored before any slot value
// indexing its new element, so a reader that sees the slot loads a side
// slice long enough; elements already published never move or change.
func (r *Router) addSide(rt *vertexRoute) uint64 {
	side := append(*r.side.Load(), rt)
	r.side.Store(&side)
	return uint64(len(side)-1)<<2 | valSide | valSet
}

// rebuild reinserts old's live entries into a fresh table with room for one
// more and installs it; a reader still probing old sees only published
// entries and falls into fill on a miss. With compact set (dropRerouted's
// call, no reader running) it also rebuilds the side slice without the
// routes no slot refers to any more.
func (r *Router) rebuild(old *table, compact bool) *table {
	t := newTable(r.count + 1)
	oldSide := *r.side.Load()
	var side []*vertexRoute
	r.count = 0
	for i := range old.slots {
		s := &old.slots[i]
		val := s.val.Load()
		if val&valSet == 0 {
			continue // empty, or dropped
		}
		if compact && val&valSide != 0 {
			side = append(side, oldSide[val>>2])
			val = uint64(len(side)-1)<<2 | valSide | valSet
		}
		ns, _ := t.probe(graph.VertexID(s.key))
		ns.key = s.key
		ns.val.Store(val)
		r.count++
	}
	if compact {
		r.side.Store(&side)
	}
	r.tab.Store(t)
	return t
}

// dropRerouted removes every vertex whose replica count no longer matches
// the installed sketch and records it in r.rerouted. It runs inside a
// sketch-only Update, so no reader is probing: a dropped slot is marked in
// place and, linear probing having no cheap delete, the table is rebuilt
// without the marked slots — if there are any; few crossing deltas move a
// vertex this router has looked up.
func (r *Router) dropRerouted() {
	t, side := r.tab.Load(), *r.side.Load()
	for i := range t.slots {
		s := &t.slots[i]
		val := s.val.Load()
		if val == 0 {
			continue
		}
		k := 1
		if val&valSide != 0 {
			k = side[val>>2].k
		}
		if v := graph.VertexID(s.key); r.replicas(v) != k {
			r.rerouted = append(r.rerouted, v)
			s.val.Store(valSide)
		}
	}
	if len(r.rerouted) > 0 {
		r.rebuild(t, true)
	}
}

// Update installs a directory view. It must run on the owning entity's
// event loop with no lookup in flight (an agent's lookups run on that
// loop): that is what lets it replace the table
// without coordinating with readers. Stale views (epoch older than current)
// are ignored and reported false. A view with the installed membership can
// differ only in its sketch, which feeds nothing but replica
// counts: the ring stays and the table keeps every vertex whose count is
// unchanged (Rerouted lists the rest). Anything else rebuilds the ring and
// starts an empty table.
func (r *Router) Update(v *wire.View) (bool, error) {
	if v.Epoch < r.epoch {
		return false, nil
	}
	// The sketch loads in place, first: malformed bytes error out before
	// anything is touched. An absent sketch is an empty one. The crossing
	// is judged under the installed membership, which is all that matters:
	// it is only read when the view keeps that membership.
	crossed := true
	if len(v.Sketch) > 0 {
		var err error
		if crossed, err = r.sk.LoadEncoded(v.Sketch, r.threshold, r.cfg.MaxReplicas); err != nil {
			return false, fmt.Errorf("route: view sketch: %w", err)
		}
	} else {
		r.sk.Reset()
	}
	r.epoch = v.Epoch
	r.batch = v.BatchID
	r.n = v.N
	r.rerouted = r.rerouted[:0]
	if r.sketchOnly = r.sameMembers(v); r.sketchOnly {
		r.settle()
		// No cell changed replica bucket means no vertex changed count.
		if crossed {
			r.dropRerouted()
		}
		return true, nil
	}
	members := make([]consistent.AgentID, 0, len(v.Agents))
	addrs := make(map[uint64]string, len(v.Agents))
	for _, a := range v.Agents {
		members = append(members, consistent.AgentID(a.ID))
		addrs[a.ID] = a.Addr
	}
	r.ring = consistent.New(members, consistent.Options{Virtual: r.cfg.Virtual, Hash: r.cfg.Hash})
	r.members = r.ring.Members()
	r.addrs = addrs
	r.unsplit = make([]vertexRoute, len(r.members))
	for i := range r.unsplit {
		r.unsplit[i] = vertexRoute{k: 1, set: r.members[i : i+1 : i+1], at: []int32{int32(i)}}
	}
	r.settle()
	// Every route was a function of the previous ring.
	r.resetTable()
	return true, nil
}

// sameMembers reports whether v carries exactly the installed membership
// (IDs and addresses).
func (r *Router) sameMembers(v *wire.View) bool {
	if len(v.Agents) != len(r.addrs) {
		return false
	}
	for _, a := range v.Agents {
		if addr, ok := r.addrs[a.ID]; !ok || addr != a.Addr {
			return false
		}
	}
	return true
}

// Rerouted describes what the last Update did to routes. sketchOnly true
// means it changed nothing but the sketch, and vs lists every vertex whose
// route it dropped because its replica count changed — among vertices
// looked up since the last wholesale install, all of which the table
// still holds. sketchOnly false means membership changed and any route may
// have moved. vs is reused by the next Update.
func (r *Router) Rerouted() (vs []graph.VertexID, sketchOnly bool) {
	return r.rerouted, r.sketchOnly
}

// Epoch returns the installed view's epoch.
func (r *Router) Epoch() uint64 { return r.epoch }

// BatchID returns the installed view's batch clock.
func (r *Router) BatchID() uint64 { return r.batch }

// N returns the view's global vertex count estimate.
func (r *Router) N() uint64 { return r.n }

// NumAgents returns the member count.
func (r *Router) NumAgents() int { return len(r.members) }

// Agents returns the member IDs, sorted; MemberIndex and EdgeOwnerIndex
// answer with positions in this list.
func (r *Router) Agents() []consistent.AgentID { return r.members }

// MemberIndex returns id's position in Agents().
func (r *Router) MemberIndex(id consistent.AgentID) (int, bool) { return r.ring.Index(id) }

// AddrOf maps an agent ID to its listen address.
func (r *Router) AddrOf(id consistent.AgentID) (string, bool) {
	a, ok := r.addrs[uint64(id)]
	return a, ok
}

// Replicas returns k for vertex v: the sketch degree estimate pushed
// through the replication policy, capped by the ring size.
func (r *Router) Replicas(v graph.VertexID) int {
	return r.routeOf(v).k
}

// DegreeEstimate exposes the sketch estimate (Fig. 7 instrumentation). It
// reads the sketch of the last view installed; the directory's own merge
// may have moved on, by less than a replica bucket per cell.
func (r *Router) DegreeEstimate(v graph.VertexID) uint64 {
	return r.sk.Estimate(uint64(v))
}

// EdgeOwner resolves the agent owning vertex u's copy of edge (u,other):
// the two-level lookup of Figure 3. The first level (u's replica window)
// comes from the route table; only the cheap second hash over the
// destination runs per edge, and only for a split u.
func (r *Router) EdgeOwner(u, other graph.VertexID) (consistent.AgentID, bool) {
	if i, ok := r.EdgeOwnerIndex(u, other); ok {
		return r.members[i], true
	}
	return 0, false
}

// EdgeOwnerIndex is EdgeOwner answering with the owner's position in
// Agents(), for callers that keep per-agent state in a slice.
func (r *Router) EdgeOwnerIndex(u, other graph.VertexID) (int, bool) {
	i, rt := r.lookup(u)
	if rt == nil {
		return i, true
	}
	if len(rt.at) == 0 {
		return 0, false
	}
	return int(rt.at[r.ring.PickIndex(len(rt.at), uint64(other))]), true
}

// RouteIndex resolves the first level of Figure 3 once, for a caller about
// to place many of v's copies. An unsplit v answers with the position in
// Agents() of the one agent that owns every copy, and nil replicas; a split
// v with its replicas' positions, among which ReplicaFor picks per
// neighbour. ok is false on an empty ring. replicas is shared with the
// route table: read-only, and dead after the next Update.
func (r *Router) RouteIndex(v graph.VertexID) (owner int, replicas []int32, ok bool) {
	i, rt := r.lookup(v)
	if rt == nil {
		return i, nil, true
	}
	return 0, rt.at, len(rt.at) > 0
}

// ReplicaFor is the second level: which of a split vertex's replicas (from
// RouteIndex) owns its copy of the edge to or from other.
func (r *Router) ReplicaFor(replicas []int32, other graph.VertexID) int {
	return int(replicas[r.ring.PickIndex(len(replicas), uint64(other))])
}

// CopyOwner resolves the owner of one routed edge-change copy: Out copies
// key on Src, In copies key on Dst.
func (r *Router) CopyOwner(c wire.EdgeChange) (consistent.AgentID, bool) {
	if i, ok := r.CopyOwnerIndex(c); ok {
		return r.members[i], true
	}
	return 0, false
}

// CopyOwnerIndex is CopyOwner answering with the owner's position in
// Agents().
func (r *Router) CopyOwnerIndex(c wire.EdgeChange) (int, bool) {
	if c.Dir == graph.Out {
		return r.EdgeOwnerIndex(c.Src, c.Dst)
	}
	return r.EdgeOwnerIndex(c.Dst, c.Src)
}

// ReplicaSet returns vertex v's replica agents; index 0 is the master.
// The returned slice is shared with the route table: callers must not
// mutate or retain it across a view Update (use ReplicaSetInto for an
// owned copy).
func (r *Router) ReplicaSet(v graph.VertexID) []consistent.AgentID {
	return r.routeOf(v).set
}

// ReplicaSetInto copies v's replica set into out (reset to out[:0]),
// allocating nothing when out has capacity.
func (r *Router) ReplicaSetInto(v graph.VertexID, out []consistent.AgentID) []consistent.AgentID {
	return append(out[:0], r.routeOf(v).set...)
}

// IsReplica reports whether id is one of v's replicas, without
// materializing the set.
func (r *Router) IsReplica(v graph.VertexID, id consistent.AgentID) bool {
	_, replica := r.Placement(v, id)
	return replica
}

// Placement is Split and IsReplica from one lookup.
func (r *Router) Placement(v graph.VertexID, id consistent.AgentID) (split, replica bool) {
	i, rt := r.lookup(v)
	if rt == nil {
		return false, r.members[i] == id
	}
	return rt.k > 1, slices.Contains(rt.set, id)
}

// Master returns v's master replica without allocating.
func (r *Router) Master(v graph.VertexID) (consistent.AgentID, bool) {
	return r.AnyReplica(v, 0)
}

// AnyReplica returns one of v's replicas, chosen by salt — the random-
// replica query fast path of §3.4.1.
func (r *Router) AnyReplica(v graph.VertexID, salt uint64) (consistent.AgentID, bool) {
	i, rt := r.lookup(v)
	if rt == nil {
		return r.members[i], true
	}
	if len(rt.set) == 0 {
		return 0, false
	}
	return rt.set[salt%uint64(len(rt.set))], true
}

// Split reports whether v is split across multiple agents.
func (r *Router) Split(v graph.VertexID) bool {
	_, rt := r.lookup(v)
	return rt != nil && rt.k > 1
}

// IsMember reports ring membership.
func (r *Router) IsMember(id consistent.AgentID) bool { return r.ring.Contains(id) }

// Config returns the shared cluster configuration.
func (r *Router) Config() config.Config { return r.cfg }
