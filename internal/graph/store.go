package graph

import (
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
)

// Store is a single agent's dynamic graph slice, stored as sealed CSR
// runs plus a delta-log tail. It is not safe for concurrent use: agents
// are single-threaded event loops. The one exception is Compactions,
// which is an atomic so metric scrapes may read it from other goroutines.
//
// Layout: every locally present vertex has a record in one dense array,
// found through an open-addressed index. The record names the vertex's
// sealed neighbour runs — contiguous, sorted spans of the store-wide sealed
// arrays — and carries its flags; a vertex edited since the last compaction
// also has a tail of edges inserted or deleted since, kept beside the
// records. The last compaction wrote the sealed arrays in record order;
// between compactions AddRun appends the run of a vertex that held nothing in
// that direction to their end. A span, once written, never changes.
// Iteration merges the sealed run (minus the tail's delete log) with the
// tail's sorted inserts, so neighbours always come back in ascending ID
// order no matter how the edges are split between generations.
type Store struct {
	// index maps a vertex to its record: power-of-two slots holding a record
	// position plus one (0 is empty), probed linearly from a multiply-shift
	// of the key, never more than half full. A vertex that leaves is deleted
	// by backward shift, so no tombstones build up, and the last record moves
	// into its place. Record order is therefore a function of the calls
	// made, not of a hash seed.
	index []uint32
	shift uint8
	recs  []vertexSlot
	// tails holds the delta log of every record whose hasTail flag is up.
	tails map[VertexID]*tailRec

	sealed [2][]VertexID // by Dir
	// sealedVer moves whenever what SealedRuns enumerates may have changed;
	// edits counts every edit that changed a held copy, which a tail edit
	// does without moving sealedVer.
	sealedVer, edits uint64

	num [2]int // live copies, by Dir

	// tailOps counts live tail entries (adds + delete-log records) and
	// deadSealed counts sealed entries that are logically deleted or
	// unreachable (dropped vertices); their sum against the sealed size
	// drives compaction.
	tailOps    int
	deadSealed int

	// compactMin is the tail size below which compaction never triggers;
	// above it, compaction fires when tail+dead exceeds sealed/4.
	compactMin  int
	compactions atomic.Uint64

	// The active set is the held vertices whose isActive flag is up plus
	// gone, the active vertices the store does not hold, ascending. active
	// lists the held ones in the order they were marked; an entry whose
	// flag has come down since is skipped, and a vertex may be listed twice
	// if it left and came back.
	active  []VertexID
	nActive int // flags up
	gone    []VertexID

	// flips logs every vertex that gained or lost local presence since the
	// last TakeFlips, once per change, so a caller that derives something
	// from the vertex set can bring it up to date without walking the set.
	// flipsLost marks a log abandoned because it outgrew that walk.
	flips     []VertexID
	flipsLost bool

	// fresh logs every copy Apply inserted since the last TakeFresh or
	// TakeActive, so an incremental run can announce along the new edges
	// alone. freshLost marks a log abandoned: it outgrew the vertex count,
	// like the flip log, or activity arrived that it does not describe
	// (MarkActive, AddRun).
	fresh     []EdgeCopy
	freshLost bool
	// deleted records that Apply deleted a copy the store held, since the
	// last TakeDeleted: announcing fresh copies cannot repair that.
	deleted bool
}

// vertexSlot is one vertex's record (24 B, no pointers): the offsets of its
// sealed runs, and in meta their lengths — 30 bits each, Out's lowest — under
// the flags. A vertex holds fewer than 2^30 copies per direction.
type vertexSlot struct {
	key  VertexID
	off  [2]uint32 // by Dir
	meta uint64
}

const (
	runBits   = 30
	runMask   = 1<<runBits - 1
	runFields = 1<<(2*runBits) - 1 // both lengths
)

// The flags of vertexSlot.meta, above the run lengths.
const (
	hasTail  uint64 = 1 << (2*runBits + iota) // tails holds the vertex's delta log
	isActive                                  // in the active set
	isPinned                                  // kept with zero copies
)

// runLen returns the length of r's sealed run in direction d.
func (r *vertexSlot) runLen(d Dir) uint32 { return uint32(r.meta>>(runBits*uint(d))) & runMask }

// setRun points r's sealed run in direction d at n entries from off.
func (r *vertexSlot) setRun(d Dir, off, n int) {
	if n > runMask {
		panic("graph: a vertex's sealed run outgrew 2^30 copies")
	}
	sh := runBits * uint(d)
	r.off[d] = uint32(off)
	r.meta = r.meta&^(runMask<<sh) | uint64(n)<<sh
}

// tailRec is the delta log of one recently-mutated vertex, by Dir. All four
// lists are kept sorted ascending; adds are disjoint from the sealed run,
// dels are a subset of it.
type tailRec struct {
	add, del [2][]VertexID
}

func (t *tailRec) size() int {
	return len(t.add[Out]) + len(t.del[Out]) + len(t.add[In]) + len(t.del[In])
}

// fib is 2^64 over the golden ratio: the multiply-shift hash's multiplier.
const fib = 0x9e3779b97f4a7c15

// DefaultCompactMin is the minimum tail size (adds + delete-log records,
// store-wide) before a compaction can trigger.
const DefaultCompactMin = 1024

// NewStore returns an empty store.
func NewStore() *Store { return &Store{compactMin: DefaultCompactMin} }

// SetCompactMin overrides the minimum tail size that triggers compaction
// (tests and benchmarks force small thresholds to exercise generation
// boundaries).
func (s *Store) SetCompactMin(n int) {
	if n < 1 {
		n = 1
	}
	s.compactMin = n
}

// NumVertices returns the count of vertices with at least one local edge
// copy (or a pin).
func (s *Store) NumVertices() int { return len(s.recs) }

func (s *Store) home(v VertexID) int { return int(uint64(v) * fib >> s.shift) }

// find returns the position of v's record, or -1.
func (s *Store) find(v VertexID) int {
	if len(s.index) == 0 {
		return -1
	}
	mask := len(s.index) - 1
	for i := s.home(v); ; i = (i + 1) & mask {
		e := s.index[i]
		if e == 0 {
			return -1
		}
		if s.recs[e-1].key == v {
			return int(e - 1)
		}
	}
}

// slotOf returns the index slot that names position p.
func (s *Store) slotOf(p int) int {
	mask := len(s.index) - 1
	for i := s.home(s.recs[p].key); ; i = (i + 1) & mask {
		if s.index[i] == uint32(p+1) {
			return i
		}
	}
}

// place enters position p in the index.
func (s *Store) place(p int) {
	mask := len(s.index) - 1
	i := s.home(s.recs[p].key)
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = uint32(p + 1)
}

// indexSize is the smallest power of two, at least 16, that n records fill
// at most half.
func indexSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// reindex rebuilds the index at size for the current records.
func (s *Store) reindex(size int) {
	s.index = make([]uint32, size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for p := range s.recs {
		s.place(p)
	}
}

// add appends a record for v, which the store does not hold, and returns
// its position. A vertex that was active while away is active again.
func (s *Store) add(v VertexID) int {
	if 2*(len(s.recs)+1) > len(s.index) {
		s.reindex(indexSize(len(s.recs) + 1))
	}
	p := len(s.recs)
	s.recs = append(s.recs, vertexSlot{key: v})
	s.place(p)
	s.flipped(v)
	if len(s.gone) > 0 {
		var was bool
		if s.gone, was = sortedRemove(s.gone, v); was {
			s.activate(p)
		}
	}
	return p
}

// remove deletes the record at p: its index entry by backward shift, then
// the record itself, by moving the last one into its place.
func (s *Store) remove(p int) {
	mask := len(s.index) - 1
	i := s.slotOf(p)
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its probe run starts
		// after the hole.
		if h := s.home(s.recs[s.index[j]-1].key); (j-h)&mask >= (j-i)&mask {
			s.index[i], i = s.index[j], j
		}
	}
	s.index[i] = 0
	if last := len(s.recs) - 1; p != last {
		s.index[s.slotOf(last)] = uint32(p + 1)
		s.recs[p] = s.recs[last]
	}
	s.recs = s.recs[:len(s.recs)-1]
}

// flipped records that v just gained or lost local presence.
func (s *Store) flipped(v VertexID) {
	if s.flipsLost {
		return
	}
	if len(s.flips) > len(s.recs)+flipSlack {
		s.flips, s.flipsLost = nil, true
		return
	}
	s.flips = append(s.flips, v)
}

// flipSlack is how far the flip log may outgrow the vertex count before it
// is abandoned; it keeps a small store from giving up after a few changes.
const flipSlack = 1024

// TakeFlips returns the vertices whose local presence changed since the
// previous call — one entry per change, so a vertex that came and went
// appears twice — and starts a new log. ok is false when the log was
// abandoned because replaying it would cost more than walking Vertices;
// the caller should do that instead. The slice is only valid until the
// next mutation of the store.
func (s *Store) TakeFlips() (flips []VertexID, ok bool) {
	flips, ok = s.flips, !s.flipsLost
	s.flips, s.flipsLost = s.flips[:0], false
	if cap(s.flips) > 4*flipSlack {
		s.flips = nil // a bulk load's log is not worth keeping allocated
	}
	return flips, ok
}

// logFresh records that Apply inserted copy c.
func (s *Store) logFresh(c EdgeCopy) {
	if s.freshLost {
		return
	}
	if len(s.fresh) > len(s.recs)+flipSlack {
		s.loseFresh()
		return
	}
	s.fresh = append(s.fresh, c)
}

// loseFresh abandons the fresh log and releases its storage.
func (s *Store) loseFresh() { s.fresh, s.freshLost = nil, true }

// restartFresh starts an empty, intact fresh log.
func (s *Store) restartFresh() {
	s.fresh, s.freshLost = s.fresh[:0], false
	if cap(s.fresh) > 4*flipSlack {
		s.fresh = nil // a bulk batch's log is not worth keeping allocated
	}
}

// TakeFresh returns the edge copies Apply inserted since the previous
// TakeFresh or TakeActive — one entry per insert that changed the store, so
// a copy deleted and inserted again appears twice and a copy deleted since
// is still listed — and starts a new log. ok is false when the log was
// abandoned: it outgrew the vertex count, or MarkActive or AddRun brought
// activity it cannot describe; the caller should then treat every active
// vertex's every edge as new. The slice is only valid until the next
// mutation of the store.
func (s *Store) TakeFresh() (copies []EdgeCopy, ok bool) {
	copies, ok = s.fresh, !s.freshLost
	s.restartFresh()
	return copies, ok
}

// NumOutEdges returns the number of locally stored out-copies.
func (s *Store) NumOutEdges() int { return s.num[Out] }

// NumEdgeCopies returns out+in copies, the agent's memory-relevant load.
func (s *Store) NumEdgeCopies() int { return s.num[Out] + s.num[In] }

// Compactions returns the number of tail-fold compactions performed. It
// is safe to call from any goroutine (metric scrapes).
func (s *Store) Compactions() uint64 { return s.compactions.Load() }

// SealedVersion names what SealedRuns enumerates: a compaction, a run sealed
// by AddRun and a vertex retired with a sealed run each move it, so two equal
// readings bracket the same enumeration.
func (s *Store) SealedVersion() uint64 { return s.sealedVer }

// Version moves whenever a held copy or the sealed layout may have changed,
// tail edits included: two equal readings bracket the same runs and tails.
func (s *Store) Version() uint64 { return s.sealedVer + s.edits }

// sealedRun returns r's (possibly partially deleted) sealed run in direction d.
func (s *Store) sealedRun(r *vertexSlot, d Dir) []VertexID {
	return s.sealed[d][r.off[d] : r.off[d]+r.runLen(d)]
}

// tailAt returns the delta log of the record at p, or nil.
func (s *Store) tailAt(p int) *tailRec {
	if s.recs[p].meta&hasTail == 0 {
		return nil
	}
	return s.tails[s.recs[p].key]
}

// attach makes t the delta log of the record at p, which has none.
func (s *Store) attach(p int, t *tailRec) {
	if s.tails == nil {
		s.tails = make(map[VertexID]*tailRec)
	}
	s.tails[s.recs[p].key] = t
	s.recs[p].meta |= hasTail
}

// sortedContains reports whether v is in the ascending list.
func sortedContains(list []VertexID, v VertexID) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	return i < len(list) && list[i] == v
}

// sortedInsert inserts v keeping ascending order; reports false if
// already present.
func sortedInsert(list []VertexID, v VertexID) ([]VertexID, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i < len(list) && list[i] == v {
		return list, false
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	return list, true
}

// sortedRemove deletes v preserving order; reports whether it was there.
func sortedRemove(list []VertexID, v VertexID) ([]VertexID, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i >= len(list) || list[i] != v {
		return list, false
	}
	copy(list[i:], list[i+1:])
	return list[:len(list)-1], true
}

// Pin keeps vertex v in the store even with zero local edges, used for
// replica bookkeeping of split vertices that currently hold no edge copy.
func (s *Store) Pin(v VertexID) {
	p := s.find(v)
	if p < 0 {
		p = s.add(v)
	}
	s.recs[p].meta |= isPinned
}

// Unpin removes the pin; the vertex is dropped if it has no edges left.
func (s *Store) Unpin(v VertexID) {
	if p := s.find(v); p >= 0 {
		s.recs[p].meta &^= isPinned
		s.maybeDrop(p)
	}
}

// liveDegree returns the live degree in direction d of the record at p.
func (s *Store) liveDegree(p int, d Dir) int {
	n := int(s.recs[p].runLen(d))
	if t := s.tailAt(p); t != nil {
		n += len(t.add[d]) - len(t.del[d])
	}
	return n
}

// maybeDrop removes the record at p if it is left with no live copies and
// no pin. Sealed entries it still occupies become dead weight until the next
// compaction.
func (s *Store) maybeDrop(p int) {
	if s.recs[p].meta&isPinned == 0 && s.liveDegree(p, Out) == 0 && s.liveDegree(p, In) == 0 {
		s.drop(p)
	}
}

// drop removes the record at p, whatever it holds, and its activity.
func (s *Store) drop(p int) {
	v := s.recs[p].key
	s.retire(p)
	if s.recs[p].meta&isActive != 0 {
		s.nActive--
	}
	s.remove(p)
	s.flipped(v)
}

// retire takes the record at p's tail and sealed runs out of the store-wide
// accounting and clears them: the tail is forgotten and every sealed entry
// it had not already delete-logged joins the dead count. The flags stay.
func (s *Store) retire(p int) {
	r := &s.recs[p]
	if n := int(r.runLen(Out) + r.runLen(In)); n > 0 {
		s.sealedVer++
		s.deadSealed += n
	}
	if t := s.tailAt(p); t != nil {
		s.tailOps -= t.size()
		s.deadSealed -= len(t.del[Out]) + len(t.del[In])
		delete(s.tails, r.key)
	}
	r.off = [2]uint32{}
	r.meta &^= runFields | hasTail
}

// AddEdge stores a copy of edge (u,v) in direction dir. For dir==Out the
// copy lives under u (v added to u's out-set); for dir==In it lives
// under v (u added to v's in-set). Duplicate copies are ignored; the
// return reports whether the store changed.
func (s *Store) AddEdge(u, v VertexID, dir Dir) bool {
	key, nbr := u, v
	if dir == In {
		key, nbr = v, u
	}
	p := s.find(key)
	if p < 0 {
		p = s.add(key)
	}
	t := s.tailAt(p)
	if sortedContains(s.sealedRun(&s.recs[p], dir), nbr) {
		// Present in the sealed run unless delete-logged; a logged delete
		// is revived by erasing the log entry.
		if t == nil {
			return false
		}
		var revived bool
		if t.del[dir], revived = sortedRemove(t.del[dir], nbr); !revived {
			return false
		}
		s.tailOps--
		s.deadSealed--
	} else {
		if t == nil {
			t = &tailRec{}
			s.attach(p, t)
		}
		var inserted bool
		if t.add[dir], inserted = sortedInsert(t.add[dir], nbr); !inserted {
			return false
		}
		s.tailOps++
	}
	s.num[dir]++
	s.edits++
	s.MaybeCompact()
	return true
}

// RemoveEdge deletes the stored copy of (u,v) in direction dir, reporting
// whether it existed. Vertices left with no copies (and no pin) are
// dropped so memory tracks the live graph.
func (s *Store) RemoveEdge(u, v VertexID, dir Dir) bool {
	key, nbr := u, v
	if dir == In {
		key, nbr = v, u
	}
	p := s.find(key)
	if p < 0 {
		return false
	}
	t := s.tailAt(p)
	if t != nil {
		// A tail-added edge is removed from the add log directly.
		if list, removed := sortedRemove(t.add[dir], nbr); removed {
			t.add[dir] = list
			s.tailOps--
			s.num[dir]--
			s.edits++
			s.maybeDrop(p)
			return true
		}
	}
	if !sortedContains(s.sealedRun(&s.recs[p], dir), nbr) {
		return false
	}
	if t == nil {
		t = &tailRec{}
		s.attach(p, t)
	}
	var logged bool
	if t.del[dir], logged = sortedInsert(t.del[dir], nbr); !logged {
		return false // already delete-logged
	}
	s.tailOps++
	s.deadSealed++
	s.num[dir]--
	s.edits++
	s.maybeDrop(p)
	s.MaybeCompact()
	return true
}

// Bulk edits. Migration moves a vertex's copies as sorted neighbour runs,
// so the three edits below touch a vertex once, in time linear in its
// lists, where AddEdge/RemoveEdge search and shift per copy. None of them
// compacts: that makes them safe inside a Vertices walk, on the vertex
// being visited, and leaves one MaybeCompact to the caller. None may be
// applied to a vertex while a Cursor over it is live.

// AddRun is AddEdge over a run: nbrs, ascending and distinct, become copies
// under key in direction dir. A delete-logged sealed entry is revived, the
// rest join the add log; a vertex with nothing stored in that direction
// takes the run as its sealed run, appended to the store-wide array, so it
// leaves nothing to compact. It returns how many copies the store did not
// already hold.
func (s *Store) AddRun(key VertexID, dir Dir, nbrs []VertexID) int {
	if len(nbrs) > 0 {
		s.loseFresh() // a moved or restored run is not a fresh insert
	}
	return s.editRun(key, dir, nbrs, false)
}

// RemoveRun is RemoveEdge over a run: a tail-added entry is erased, a sealed
// one delete-logged, and a vertex left with no copies (and no pin) dropped.
// It returns how many of the copies existed.
func (s *Store) RemoveRun(key VertexID, dir Dir, nbrs []VertexID) int {
	return s.editRun(key, dir, nbrs, true)
}

func (s *Store) editRun(key VertexID, dir Dir, nbrs []VertexID, remove bool) int {
	if len(nbrs) == 0 {
		return 0
	}
	p := s.find(key)
	if p < 0 {
		if remove {
			return 0
		}
		p = s.add(key)
	}
	if !remove && s.recs[p].runLen(dir) == 0 && s.liveDegree(p, dir) == 0 {
		// No sealed run and no tail adds: the run becomes the sealed run.
		s.sealRun(p, dir, nbrs)
		return len(nbrs)
	}
	t := s.tailAt(p)
	attached := t != nil
	if !attached {
		t = &tailRec{} // attached below if the edit leaves anything in it
	}
	// An add grows the add log and shrinks the delete log; a remove, the
	// reverse.
	grow, shrink := &t.add[dir], &t.del[dir]
	if remove {
		grow, shrink = shrink, grow
	}
	var grown, shrunk int
	*grow, *shrink, grown, shrunk = mergeEdit(s.sealedRun(&s.recs[p], dir), nbrs, *grow, *shrink, remove)
	n := grown + shrunk
	if n == 0 {
		return 0
	}
	if !attached {
		s.attach(p, t)
	}
	s.edits++
	s.tailOps += grown - shrunk
	if remove {
		s.deadSealed += grown // newly delete-logged
		s.num[dir] -= n
		s.maybeDrop(p)
	} else {
		s.deadSealed -= shrunk // revived
		s.num[dir] += n
	}
	return n
}

// sealRun appends nbrs to the end of the sealed array of direction dir,
// points the record at p there and counts the copies; the record must hold
// nothing in that direction.
func (s *Store) sealRun(p int, dir Dir, nbrs []VertexID) {
	s.recs[p].setRun(dir, len(s.sealed[dir]), len(nbrs))
	s.sealed[dir] = append(s.sealed[dir], nbrs...)
	s.num[dir] += len(nbrs)
	s.sealedVer++
}

// mergeEdit merges the ascending, distinct run against one direction of a
// vertex in a single pass. Each neighbour found in the sealed run (when
// growOnSealed) or missing from it (otherwise) is inserted into grow unless
// already there; every other one is erased from shrink if there. The grown
// list is a new slice when anything was inserted; shrink is compacted in
// place.
func mergeEdit(sealed, run, grow, shrink []VertexID, growOnSealed bool) (g, sh []VertexID, grown, shrunk int) {
	var merged []VertexID
	si, gi, gm, ri, rw := 0, 0, 0, 0, 0 // gm: how much of grow is in merged
	for _, w := range run {
		for si < len(sealed) && sealed[si] < w {
			si++
		}
		if (si < len(sealed) && sealed[si] == w) == growOnSealed {
			for gi < len(grow) && grow[gi] < w {
				gi++
			}
			if gi == len(grow) || grow[gi] != w {
				if merged == nil {
					merged = make([]VertexID, 0, len(grow)+len(run))
				}
				merged = append(append(merged, grow[gm:gi]...), w)
				gm = gi
				grown++
			}
			continue
		}
		for ri < len(shrink) && shrink[ri] < w {
			shrink[rw] = shrink[ri]
			rw++
			ri++
		}
		if ri < len(shrink) && shrink[ri] == w {
			ri++
			shrunk++
		}
	}
	if grown > 0 {
		grow = append(merged, grow[gm:]...)
	}
	rw += copy(shrink[rw:], shrink[ri:])
	return grow, shrink[:rw], grown, shrunk
}

// DropVertex forgets every copy stored under v, in O(1) plus its tail, and
// returns how many out and in copies that was. A pinned vertex stays, as an
// empty record.
func (s *Store) DropVertex(v VertexID) (out, in int) {
	p := s.find(v)
	if p < 0 {
		return 0, 0
	}
	out, in = s.liveDegree(p, Out), s.liveDegree(p, In)
	s.num[Out] -= out
	s.num[In] -= in
	s.edits++
	if s.recs[p].meta&isPinned != 0 {
		s.retire(p)
	} else {
		s.drop(p)
	}
	return out, in
}

// MaybeCompact folds the tail into a fresh sealed generation once the
// delta log (plus dead sealed entries) outgrows max(compactMin,
// sealed/4) — geometric growth keeps amortized insert cost O(1) while
// bounding tail scans and dead space to a constant fraction. AddEdge and
// RemoveEdge apply the rule themselves; a caller of the bulk edits
// (AddRun, RemoveRun, DropVertex) applies it once it is done with them.
func (s *Store) MaybeCompact() { s.compactOver(4) }

// Settle is MaybeCompact for a caller done with bulk edits for a while —
// its migration round is over: it folds a delta log a quarter the size
// MaybeCompact lets stand, so a round does not leave up to a fifth of the
// store in the bulkier tail.
func (s *Store) Settle() { s.compactOver(16) }

// Fold compacts whatever tail or dead space there is, for a caller that has
// just applied a batch large against the store: the sealed runs it leaves
// are what every later read walks.
func (s *Store) Fold() {
	if len(s.tails)+s.deadSealed > 0 {
		s.Compact()
	}
}

// compactOver compacts once the delta log plus the dead sealed entries
// reach max(compactMin, sealed/fraction).
func (s *Store) compactOver(fraction int) {
	threshold := (len(s.sealed[Out]) + len(s.sealed[In])) / fraction
	if threshold < s.compactMin {
		threshold = s.compactMin
	}
	if s.tailOps+s.deadSealed >= threshold {
		s.Compact()
	}
}

// Compact rebuilds the sealed arrays from the current live edge set, in
// record order, clearing every tail. Pinned zero-edge vertices survive with
// empty runs. The records and the index are reallocated at the size the
// vertex count asks for, so a compacted store's footprint is a function of
// what it holds, not of how it got there.
func (s *Store) Compact() {
	var next [2][]VertexID
	for d := range next {
		next[d] = make([]VertexID, 0, s.num[d])
	}
	for p := range s.recs {
		t, r := s.tailAt(p), &s.recs[p]
		for d := Out; d <= In; d++ {
			off := len(next[d])
			next[d] = mergeRun(next[d], s.sealedRun(r, d), t, d)
			r.setRun(d, off, len(next[d])-off)
		}
		r.meta &^= hasTail
	}
	s.sealed, s.tails = next, nil
	s.tailOps, s.deadSealed = 0, 0
	s.recs = slices.Clone(s.recs)
	if len(s.recs) == 0 {
		s.index = nil
	} else if size := indexSize(len(s.recs)); size != len(s.index) {
		s.reindex(size)
	}
	s.sealedVer++
	s.compactions.Add(1)
}

// mergeRun appends the live merge of one sealed run and its tail in
// direction d (sealed minus delete log, plus adds, ascending) onto dst.
func mergeRun(dst, sealed []VertexID, t *tailRec, d Dir) []VertexID {
	var add, del []VertexID
	if t != nil {
		add, del = t.add[d], t.del[d]
	}
	if len(add) == 0 && len(del) == 0 {
		return append(dst, sealed...) // untouched since the last generation
	}
	if len(sealed) == 0 {
		return append(dst, add...) // arrived since the last generation
	}
	si, ai, di := 0, 0, 0
	for si < len(sealed) || ai < len(add) {
		if si < len(sealed) {
			sv := sealed[si]
			for di < len(del) && del[di] < sv {
				di++
			}
			if di < len(del) && del[di] == sv {
				si++
				continue
			}
			if ai < len(add) && add[ai] < sv {
				dst = append(dst, add[ai])
				ai++
				continue
			}
			dst = append(dst, sv)
			si++
			continue
		}
		dst = append(dst, add[ai])
		ai++
	}
	return dst
}

// Apply applies one change in direction dir, marking the locally stored
// endpoint active if the topology changed and logging an inserted copy in
// the fresh log (TakeFresh).
func (s *Store) Apply(c Change, dir Dir) bool {
	cp := EdgeCopy{Src: c.Src, Dst: c.Dst, Dir: dir}
	if c.Action == Insert {
		if !s.AddEdge(c.Src, c.Dst, dir) {
			return false
		}
		s.logFresh(cp)
	} else {
		if !s.RemoveEdge(c.Src, c.Dst, dir) {
			return false
		}
		s.deleted = true
	}
	s.markActive(cp.Key())
	return true
}

// TakeDeleted reports whether Apply deleted a held copy since the previous
// TakeDeleted, and starts over.
func (s *Store) TakeDeleted() bool {
	d := s.deleted
	s.deleted = false
	return d
}

// ApplyBatch applies a change batch in direction dir and returns the
// affected-vertex frontier: the sorted set of locally stored endpoints
// whose topology actually changed (§4.3: "only vertices directly modified
// in the batch are activated"). Like Apply, it marks them active and logs
// the inserted copies; incremental runs seed from those (TakeFresh,
// TakeActive).
func (s *Store) ApplyBatch(b Batch, dir Dir) []VertexID {
	var frontier []VertexID
	for _, c := range b {
		if s.Apply(c, dir) {
			frontier = append(frontier, EdgeCopy{Src: c.Src, Dst: c.Dst, Dir: dir}.Key())
		}
	}
	slices.Sort(frontier)
	return slices.Compact(frontier)
}

// HasCopy reports whether the store holds copy c.
func (s *Store) HasCopy(c EdgeCopy) bool {
	nbr := c.Nbr()
	p := s.find(c.Key())
	if p < 0 {
		return false
	}
	var add, del []VertexID
	if t := s.tailAt(p); t != nil {
		add, del = t.add[c.Dir], t.del[c.Dir]
	}
	if sortedContains(s.sealedRun(&s.recs[p], c.Dir), nbr) {
		return !sortedContains(del, nbr)
	}
	return sortedContains(add, nbr)
}

// HasVertex reports whether v has any local presence.
func (s *Store) HasVertex(v VertexID) bool { return s.find(v) >= 0 }

// Cursor is a zero-allocation neighbour iterator: a value type holding
// the sealed run, delete log, and add log of one vertex in one direction.
// It must not be held across store mutations (compaction and tail edits
// invalidate the aliased slices), the same lifetime rule the old
// neighbour-slice accessors had.
type Cursor struct {
	sealed, del, add []VertexID
	si, di, ai       int
}

// Next returns the next neighbour in ascending ID order.
func (c *Cursor) Next() (VertexID, bool) {
	for c.si < len(c.sealed) {
		sv := c.sealed[c.si]
		for c.di < len(c.del) && c.del[c.di] < sv {
			c.di++
		}
		if c.di < len(c.del) && c.del[c.di] == sv {
			c.si++
			continue
		}
		if c.ai < len(c.add) && c.add[c.ai] < sv {
			v := c.add[c.ai]
			c.ai++
			return v, true
		}
		c.si++
		return sv, true
	}
	if c.ai < len(c.add) {
		v := c.add[c.ai]
		c.ai++
		return v, true
	}
	return 0, false
}

// OutCursor returns a cursor over v's locally stored out-neighbours.
func (s *Store) OutCursor(v VertexID) Cursor {
	var c Cursor
	s.cursorInto(&c, v, Out)
	return c
}

// InCursor returns a cursor over v's locally stored in-neighbours.
func (s *Store) InCursor(v VertexID) Cursor {
	var c Cursor
	s.cursorInto(&c, v, In)
	return c
}

// OutCursorInto points c at v's locally stored out-neighbours. Building the
// cursor where it will be used spares hot loops the copy of the 96-byte
// value that OutCursor returns.
func (s *Store) OutCursorInto(c *Cursor, v VertexID) { s.cursorInto(c, v, Out) }

// InCursorInto is OutCursorInto for v's in-neighbours.
func (s *Store) InCursorInto(c *Cursor, v VertexID) { s.cursorInto(c, v, In) }

func (s *Store) cursorInto(c *Cursor, v VertexID, d Dir) {
	*c = Cursor{}
	p := s.find(v)
	if p < 0 {
		return
	}
	c.sealed = s.sealedRun(&s.recs[p], d)
	if t := s.tailAt(p); t != nil {
		c.del, c.add = t.del[d], t.add[d]
	}
}

// VertexRuns is what one record read tells of a vertex, per direction
// (indexed by Dir): its sealed run, the run's offset in the store-wide
// sealed array of that direction, whether the run is all of the vertex's
// neighbours there — no tail adds or deletes, the steady-state majority —
// and the live degree. The runs follow the Cursor lifetime rule. A caller
// may keep data parallel to a sealed array, indexed from Off, for as long as
// Compactions and SealedLen stay what they were.
type VertexRuns struct {
	Run   [2][]VertexID
	Off   [2]int
	Whole [2]bool
	Deg   [2]int
}

// RunsInto fills r with v's sealed runs and live degrees in both
// directions: one index probe and one record read, plus the tail for a
// vertex edited since the last compaction. A vertex the store does not hold
// has empty, whole runs.
func (s *Store) RunsInto(r *VertexRuns, v VertexID) {
	p := s.find(v)
	if p < 0 {
		*r = VertexRuns{Whole: [2]bool{true, true}}
		return
	}
	rec := &s.recs[p]
	no, ni := rec.runLen(Out), rec.runLen(In)
	oo, oi := rec.off[Out], rec.off[In]
	r.Run = [2][]VertexID{s.sealed[Out][oo : oo+no], s.sealed[In][oi : oi+ni]}
	r.Off = [2]int{int(oo), int(oi)}
	r.Whole = [2]bool{true, true}
	r.Deg = [2]int{int(no), int(ni)}
	if rec.meta&hasTail != 0 {
		t := s.tails[v]
		for d := Out; d <= In; d++ {
			r.Whole[d] = len(t.add[d])+len(t.del[d]) == 0
			r.Deg[d] += len(t.add[d]) - len(t.del[d])
		}
	}
}

// SealedLen returns the length of the store-wide sealed array of direction
// dir, dead entries included.
func (s *Store) SealedLen(dir Dir) int { return len(s.sealed[dir]) }

// ForEachOut calls fn for every locally stored out-neighbour of v in
// ascending ID order until fn returns false.
func (s *Store) ForEachOut(v VertexID, fn func(VertexID) bool) {
	var it Cursor
	for s.OutCursorInto(&it, v); ; {
		w, ok := it.Next()
		if !ok || !fn(w) {
			return
		}
	}
}

// Degree returns v's local out- and in-degrees in O(1).
func (s *Store) Degree(v VertexID) (out, in int) {
	p := s.find(v)
	if p < 0 {
		return 0, 0
	}
	return s.liveDegree(p, Out), s.liveDegree(p, In)
}

// Vertices calls fn for every locally present vertex until fn returns
// false, in reverse record order. fn may drop the vertex it is visiting and
// no other; vertices it adds are not visited.
func (s *Store) Vertices(fn func(VertexID) bool) {
	for p := len(s.recs) - 1; p >= 0; p-- {
		// Dropping the visited record moves an already visited one here.
		if !fn(s.recs[p].key) {
			return
		}
	}
}

// VertexList returns all locally present vertices, sorted (deterministic
// iteration for tests and checkpoints).
func (s *Store) VertexList() []VertexID {
	out := make([]VertexID, len(s.recs))
	for p := range s.recs {
		out[p] = s.recs[p].key
	}
	slices.Sort(out)
	return out
}

// activate puts the record at p in the active set.
func (s *Store) activate(p int) {
	r := &s.recs[p]
	if r.meta&isActive != 0 {
		return
	}
	r.meta |= isActive
	s.nActive++
	if len(s.active) > 2*s.nActive+flipSlack {
		// Mostly entries whose flag came down: keep one of each that is up.
		s.active = s.heldActive(s.active[:0])
		slices.Sort(s.active)
		s.active = slices.Compact(s.active)
	}
	s.active = append(s.active, r.key)
}

// heldActive appends the listed vertices whose flag is up to dst, which may
// alias the list's start; a vertex listed twice is appended twice.
func (s *Store) heldActive(dst []VertexID) []VertexID {
	for _, v := range s.active {
		if p := s.find(v); p >= 0 && s.recs[p].meta&isActive != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

func (s *Store) markActive(v VertexID) {
	if p := s.find(v); p >= 0 {
		s.activate(p)
	} else {
		s.gone, _ = sortedInsert(s.gone, v)
	}
}

// MarkActive adds v to the active set consumed by the next superstep. The
// fresh log does not say why v is active, so it is abandoned.
func (s *Store) MarkActive(v VertexID) {
	s.markActive(v)
	s.loseFresh()
}

// IsActive reports whether v is in the active set.
func (s *Store) IsActive(v VertexID) bool {
	if p := s.find(v); p >= 0 {
		return s.recs[p].meta&isActive != 0
	}
	return sortedContains(s.gone, v)
}

// ClearActive removes v from the active set.
func (s *Store) ClearActive(v VertexID) {
	if p := s.find(v); p < 0 {
		s.gone, _ = sortedRemove(s.gone, v)
	} else if r := &s.recs[p]; r.meta&isActive != 0 {
		r.meta &^= isActive
		s.nActive--
	}
}

// ActiveCount returns the size of the active set — between batch boundary
// and run start this is the frontier the next delta recompute seeds from.
func (s *Store) ActiveCount() int { return s.nActive + len(s.gone) }

// TakeActive returns the current active set sorted and resets it, and with
// it the fresh log. Incremental runs seed their first superstep from this
// set (§4.3: "only vertices directly modified in the batch are
// activated"): while the fresh log taken just before it is intact, its
// copies are the only edges those vertices announce along.
func (s *Store) TakeActive() []VertexID {
	s.restartFresh()
	out := s.ActiveList()
	for _, v := range s.active {
		if p := s.find(v); p >= 0 {
			s.recs[p].meta &^= isActive
		}
	}
	s.active, s.nActive, s.gone = nil, 0, nil
	return out
}

// ActiveList returns the active set sorted without consuming it (unlike
// TakeActive), so checkpoints can record activation non-destructively.
func (s *Store) ActiveList() []VertexID {
	if s.ActiveCount() == 0 {
		return nil
	}
	out := s.heldActive(append(make([]VertexID, 0, len(s.active)+len(s.gone)), s.gone...))
	slices.Sort(out)
	return slices.Compact(out)
}

// Copies calls fn for every stored edge copy until fn returns false. It is
// the enumeration tests and tools check a store by; migration does not
// visit copies, it walks Vertices and moves their runs (AddRun, RemoveRun,
// DropVertex).
func (s *Store) Copies(fn func(EdgeCopy) bool) {
	for p := range s.recs {
		if !s.copiesOf(s.recs[p].key, fn) {
			return
		}
	}
}

// copiesOf calls fn for every edge copy stored under vertex v (its out
// copies, then its in copies) until fn returns false, and reports whether
// the walk ran to the end.
func (s *Store) copiesOf(v VertexID, fn func(EdgeCopy) bool) bool {
	for it := s.OutCursor(v); ; {
		w, ok := it.Next()
		if !ok {
			break
		}
		if !fn(EdgeCopy{Src: v, Dst: w, Dir: Out}) {
			return false
		}
	}
	for it := s.InCursor(v); ; {
		u, ok := it.Next()
		if !ok {
			return true
		}
		if !fn(EdgeCopy{Src: u, Dst: v, Dir: In}) {
			return false
		}
	}
}

// MemoryBytes prices the store's heap footprint in O(1): the capacity of
// the sealed arrays, the records, the index and the active lists, and the
// tails with their entries. The flip and fresh logs are not priced: they
// are logs, taken and restarted by every round that reads them.
func (s *Store) MemoryBytes() uint64 {
	const (
		slotBytes    = 24  // vertexSlot
		tailRecBytes = 128 // tailRec object, plus its entry in tails
		tailOpBytes  = 16  // a tail entry: sorted-insert slices run near capacity; 2x covers append doubling
	)
	b := uint64(cap(s.sealed[Out])+cap(s.sealed[In])+cap(s.active)+cap(s.gone)) * 8
	b += uint64(cap(s.recs))*slotBytes + uint64(len(s.index))*4
	b += uint64(len(s.tails))*tailRecBytes + uint64(s.tailOps)*tailOpBytes
	return b
}

// BytesPerEdge returns the estimated bytes per stored edge copy.
func (s *Store) BytesPerEdge() float64 {
	copies := s.NumEdgeCopies()
	if copies == 0 {
		return 0
	}
	return float64(s.MemoryBytes()) / float64(copies)
}

// Checkpoint export hooks. A durable snapshot serializes the store as two
// independently content-addressed streams: the raw sealed runs (stable
// while SealedVersion is, so the segment dedups across checkpoints) and the
// delta-log tail. Both iterate in sorted vertex order so identical store
// content always produces identical bytes.

// SealedRuns calls fn for every non-empty raw sealed run — including entries
// the tail's delete log has cancelled — in ascending vertex order, a vertex's
// out run before its in run, until fn returns false. The run follows the
// Cursor lifetime rule. Replaying TailCopies on top of a store rebuilt from
// SealedRuns reproduces the live edge set exactly.
func (s *Store) SealedRuns(fn func(v VertexID, dir Dir, run []VertexID) bool) {
	for _, v := range s.VertexList() {
		r := &s.recs[s.find(v)]
		for d := Out; d <= In; d++ {
			if run := s.sealedRun(r, d); len(run) > 0 && !fn(v, d, run) {
				return
			}
		}
	}
}

// TailCopies calls fn for every delta-log entry — adds and deletes
// recorded since the current sealed generation — until fn returns false.
// deleted=true entries cancel a sealed entry; deleted=false entries are
// inserts not yet folded into a sealed run.
func (s *Store) TailCopies(fn func(c EdgeCopy, deleted bool) bool) {
	for _, v := range s.VertexList() {
		t := s.tailAt(s.find(v))
		if t == nil {
			continue
		}
		for d := Out; d <= In; d++ {
			for _, deleted := range [...]bool{false, true} {
				list := t.add[d]
				if deleted {
					list = t.del[d]
				}
				for _, w := range list {
					c := EdgeCopy{Src: v, Dst: w, Dir: d}
					if d == In {
						c.Src, c.Dst = w, v
					}
					if !fn(c, deleted) {
						return
					}
				}
			}
		}
	}
}
