package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Store is a single agent's dynamic graph slice, stored as sealed CSR
// runs plus a delta-log tail. It is not safe for concurrent use: agents
// are single-threaded event loops. The one exception is Compactions,
// which is an atomic so metric scrapes may read it from other goroutines.
//
// Layout: every locally present vertex has a slot recording its sealed
// neighbour runs — contiguous, sorted spans of the store-wide sealedOut /
// sealedIn arrays — plus an optional tail of edges inserted or deleted
// since. The last compaction wrote the arrays, in no particular vertex
// order; between compactions AddRun appends the run of a vertex that held
// nothing in that direction to their end. A span, once written, never
// changes. Iteration merges the sealed run (minus the tail's delete log)
// with the tail's sorted inserts, so neighbours always come back in
// ascending ID order no matter how the edges are split between
// generations.
type Store struct {
	slots     map[VertexID]slotRec
	sealedOut []VertexID
	sealedIn  []VertexID
	// sealedVer moves whenever what SealedRuns enumerates may have changed.
	sealedVer uint64

	numOut int
	numIn  int

	// tailOps counts live tail entries (adds + delete-log records) and
	// deadSealed counts sealed entries that are logically deleted or
	// unreachable (dropped vertices); their sum against the sealed size
	// drives compaction.
	tailOps    int
	tailRecs   int
	deadSealed int

	// compactMin is the tail size below which compaction never triggers;
	// above it, compaction fires when tail+dead exceeds sealed/4.
	compactMin  int
	compactions atomic.Uint64

	active   map[VertexID]struct{}
	pinEmpty map[VertexID]struct{} // vertices kept alive despite zero local edges

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
	// (MarkActive, ActivateAll, AddRun).
	fresh     []EdgeCopy
	freshLost bool
}

// slotRec locates one vertex's sealed runs. The tail pointer is nil for
// the (steady-state) majority of vertices untouched since the last
// compaction, so per-vertex overhead is one map entry, not a heap record
// with two growing vectors.
type slotRec struct {
	outStart, outLen uint32
	inStart, inLen   uint32
	tail             *tailRec
}

// tailRec is the delta log of one recently-mutated vertex. All four
// lists are kept sorted ascending; adds are disjoint from the sealed run,
// dels are a subset of it.
type tailRec struct {
	outAdd, outDel []VertexID
	inAdd, inDel   []VertexID
}

func (t *tailRec) empty() bool {
	return len(t.outAdd) == 0 && len(t.outDel) == 0 && len(t.inAdd) == 0 && len(t.inDel) == 0
}

func (t *tailRec) size() int {
	return len(t.outAdd) + len(t.outDel) + len(t.inAdd) + len(t.inDel)
}

// DefaultCompactMin is the minimum tail size (adds + delete-log records,
// store-wide) before a compaction can trigger.
const DefaultCompactMin = 1024

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		slots:      make(map[VertexID]slotRec),
		compactMin: DefaultCompactMin,
		active:     make(map[VertexID]struct{}),
		pinEmpty:   make(map[VertexID]struct{}),
	}
}

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
func (s *Store) NumVertices() int { return len(s.slots) }

// flipped records that v just gained or lost local presence.
func (s *Store) flipped(v VertexID) {
	if s.flipsLost {
		return
	}
	if len(s.flips) > len(s.slots)+flipSlack {
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
	if len(s.fresh) > len(s.slots)+flipSlack {
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
// abandoned: it outgrew the vertex count, or MarkActive, ActivateAll or
// AddRun brought activity it cannot describe; the caller should then treat
// every active vertex's every edge as new. The slice is only valid until
// the next mutation of the store.
func (s *Store) TakeFresh() (copies []EdgeCopy, ok bool) {
	copies, ok = s.fresh, !s.freshLost
	s.restartFresh()
	return copies, ok
}

// NumOutEdges returns the number of locally stored out-copies.
func (s *Store) NumOutEdges() int { return s.numOut }

// NumInEdges returns the number of locally stored in-copies.
func (s *Store) NumInEdges() int { return s.numIn }

// NumEdgeCopies returns out+in copies, the agent's memory-relevant load.
func (s *Store) NumEdgeCopies() int { return s.numOut + s.numIn }

// Compactions returns the number of tail-fold compactions performed. It
// is safe to call from any goroutine (metric scrapes).
func (s *Store) Compactions() uint64 { return s.compactions.Load() }

// SealedVersion names what SealedRuns enumerates: a compaction, a run sealed
// by AddRun and a vertex retired with a sealed run each move it, so two equal
// readings bracket the same enumeration.
func (s *Store) SealedVersion() uint64 { return s.sealedVer }

// sealedOutRun returns the (possibly partially deleted) sealed out run.
func (s *Store) sealedOutRun(rec slotRec) []VertexID {
	return s.sealedOut[rec.outStart : rec.outStart+rec.outLen]
}

func (s *Store) sealedInRun(rec slotRec) []VertexID {
	return s.sealedIn[rec.inStart : rec.inStart+rec.inLen]
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

// tailOf attaches (or returns) the vertex's tail record. The caller must
// re-store rec into s.slots if it was newly attached.
func (s *Store) tailOf(rec *slotRec) *tailRec {
	if rec.tail == nil {
		rec.tail = &tailRec{}
		s.tailRecs++
	}
	return rec.tail
}

// Pin keeps vertex v in the store even with zero local edges, used for
// replica bookkeeping of split vertices that currently hold no edge copy.
func (s *Store) Pin(v VertexID) {
	if _, ok := s.slots[v]; !ok {
		s.slots[v] = slotRec{}
		s.flipped(v)
	}
	s.pinEmpty[v] = struct{}{}
}

// Unpin removes the pin; the vertex is dropped if it has no edges left.
func (s *Store) Unpin(v VertexID) {
	delete(s.pinEmpty, v)
	if rec, ok := s.slots[v]; ok {
		s.maybeDrop(v, rec)
	}
}

// liveDegrees returns the vertex's live out/in degrees under rec.
func liveDegrees(rec slotRec) (out, in int) {
	out, in = int(rec.outLen), int(rec.inLen)
	if t := rec.tail; t != nil {
		out += len(t.outAdd) - len(t.outDel)
		in += len(t.inAdd) - len(t.inDel)
	}
	return out, in
}

// maybeDrop removes a vertex left with no live copies and no pin. Sealed
// entries it still occupies become dead weight until the next compaction.
func (s *Store) maybeDrop(v VertexID, rec slotRec) {
	out, in := liveDegrees(rec)
	if out != 0 || in != 0 {
		return
	}
	if _, pinned := s.pinEmpty[v]; pinned {
		return
	}
	s.drop(v, rec)
}

// drop removes v's slot, whatever it holds.
func (s *Store) drop(v VertexID, rec slotRec) {
	s.retire(rec)
	delete(s.slots, v)
	delete(s.active, v)
	s.flipped(v)
}

// retire takes rec's tail and sealed runs out of the store-wide accounting:
// the tail is forgotten and every sealed entry it had not already
// delete-logged joins the dead count.
func (s *Store) retire(rec slotRec) {
	if rec.outLen+rec.inLen > 0 {
		s.sealedVer++
	}
	s.deadSealed += int(rec.outLen) + int(rec.inLen)
	if t := rec.tail; t != nil {
		s.tailOps -= t.size()
		s.tailRecs--
		s.deadSealed -= len(t.outDel) + len(t.inDel)
	}
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
	rec, present := s.slots[key]
	var sealed []VertexID
	if dir == Out {
		sealed = s.sealedOutRun(rec)
	} else {
		sealed = s.sealedInRun(rec)
	}
	t := rec.tail
	if sortedContains(sealed, nbr) {
		// Present in the sealed run unless delete-logged; a logged delete
		// is revived by erasing the log entry.
		if t == nil {
			return false
		}
		del := &t.outDel
		if dir == In {
			del = &t.inDel
		}
		var revived bool
		if *del, revived = sortedRemove(*del, nbr); !revived {
			return false
		}
		s.tailOps--
		s.deadSealed--
	} else {
		add := func() *[]VertexID {
			t = s.tailOf(&rec)
			if dir == Out {
				return &t.outAdd
			}
			return &t.inAdd
		}()
		var inserted bool
		if *add, inserted = sortedInsert(*add, nbr); !inserted {
			return false
		}
		s.tailOps++
	}
	if dir == Out {
		s.numOut++
	} else {
		s.numIn++
	}
	s.slots[key] = rec
	if !present {
		s.flipped(key)
	}
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
	rec, ok := s.slots[key]
	if !ok {
		return false
	}
	t := rec.tail
	if t != nil {
		// A tail-added edge is removed from the add log directly.
		add := &t.outAdd
		if dir == In {
			add = &t.inAdd
		}
		if list, removed := sortedRemove(*add, nbr); removed {
			*add = list
			s.tailOps--
			if dir == Out {
				s.numOut--
			} else {
				s.numIn--
			}
			s.slots[key] = rec
			s.maybeDrop(key, rec)
			return true
		}
	}
	var sealed []VertexID
	if dir == Out {
		sealed = s.sealedOutRun(rec)
	} else {
		sealed = s.sealedInRun(rec)
	}
	if !sortedContains(sealed, nbr) {
		return false
	}
	t = s.tailOf(&rec)
	del := &t.outDel
	if dir == In {
		del = &t.inDel
	}
	var logged bool
	if *del, logged = sortedInsert(*del, nbr); !logged {
		return false // already delete-logged
	}
	s.tailOps++
	s.deadSealed++
	if dir == Out {
		s.numOut--
	} else {
		s.numIn--
	}
	s.slots[key] = rec
	s.maybeDrop(key, rec)
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
	rec, present := s.slots[key]
	out, in := liveDegrees(rec)
	empty := rec.outLen == 0 && out == 0 // no sealed run, no tail adds
	if dir == In {
		empty = rec.inLen == 0 && in == 0
	}
	if !remove && empty {
		s.sealRun(&rec, dir, nbrs)
		s.slots[key] = rec
		if !present {
			s.flipped(key)
		}
		return len(nbrs)
	}
	t := rec.tail
	if t == nil {
		t = &tailRec{} // attached below if the edit leaves anything in it
	}
	sealed, add, del, count := s.sealedOutRun(rec), &t.outAdd, &t.outDel, &s.numOut
	if dir == In {
		sealed, add, del, count = s.sealedInRun(rec), &t.inAdd, &t.inDel, &s.numIn
	}
	// An add grows the add log and shrinks the delete log; a remove, the
	// reverse.
	grow, shrink := add, del
	if remove {
		grow, shrink = del, add
	}
	var grown, shrunk int
	*grow, *shrink, grown, shrunk = mergeEdit(sealed, nbrs, *grow, *shrink, remove)
	n := grown + shrunk
	if n == 0 {
		return 0
	}
	if rec.tail == nil {
		rec.tail = t
		s.tailRecs++
	}
	s.tailOps += grown - shrunk
	if remove {
		s.deadSealed += grown // newly delete-logged
		*count -= n
	} else {
		s.deadSealed -= shrunk // revived
		*count += n
	}
	s.slots[key] = rec
	if !present {
		s.flipped(key)
	}
	if remove {
		s.maybeDrop(key, rec)
	}
	return n
}

// sealRun appends nbrs to the end of the sealed array of direction dir,
// points rec's span there and counts the copies; rec must hold nothing in
// that direction.
func (s *Store) sealRun(rec *slotRec, dir Dir, nbrs []VertexID) {
	if dir == Out {
		rec.outStart, rec.outLen = uint32(len(s.sealedOut)), uint32(len(nbrs))
		s.sealedOut = append(s.sealedOut, nbrs...)
		s.numOut += len(nbrs)
	} else {
		rec.inStart, rec.inLen = uint32(len(s.sealedIn)), uint32(len(nbrs))
		s.sealedIn = append(s.sealedIn, nbrs...)
		s.numIn += len(nbrs)
	}
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
// empty slot.
func (s *Store) DropVertex(v VertexID) (out, in int) {
	rec, ok := s.slots[v]
	if !ok {
		return 0, 0
	}
	out, in = liveDegrees(rec)
	s.numOut -= out
	s.numIn -= in
	if _, pinned := s.pinEmpty[v]; pinned {
		s.retire(rec)
		s.slots[v] = slotRec{}
	} else {
		s.drop(v, rec)
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
	if s.tailRecs+s.deadSealed > 0 {
		s.Compact()
	}
}

// compactOver compacts once the delta log plus the dead sealed entries
// reach max(compactMin, sealed/fraction).
func (s *Store) compactOver(fraction int) {
	threshold := (len(s.sealedOut) + len(s.sealedIn)) / fraction
	if threshold < s.compactMin {
		threshold = s.compactMin
	}
	if s.tailOps+s.deadSealed >= threshold {
		s.Compact()
	}
}

// Compact rebuilds the sealed arrays from the current live edge set,
// clearing every tail. Pinned zero-edge vertices survive with empty runs.
func (s *Store) Compact() {
	newOut := make([]VertexID, 0, s.numOut)
	newIn := make([]VertexID, 0, s.numIn)
	for v, rec := range s.slots {
		outStart := uint32(len(newOut))
		newOut = mergeRun(newOut, s.sealedOutRun(rec), rec.tail, false)
		inStart := uint32(len(newIn))
		newIn = mergeRun(newIn, s.sealedInRun(rec), rec.tail, true)
		s.slots[v] = slotRec{
			outStart: outStart, outLen: uint32(len(newOut)) - outStart,
			inStart: inStart, inLen: uint32(len(newIn)) - inStart,
		}
	}
	s.sealedOut, s.sealedIn = newOut, newIn
	s.tailOps, s.tailRecs, s.deadSealed = 0, 0, 0
	s.sealedVer++
	s.compactions.Add(1)
}

// mergeRun appends the live merge of one sealed run and its tail (sealed
// minus delete log, plus adds, ascending) onto dst.
func mergeRun(dst, sealed []VertexID, t *tailRec, in bool) []VertexID {
	var add, del []VertexID
	if t != nil {
		if in {
			add, del = t.inAdd, t.inDel
		} else {
			add, del = t.outAdd, t.outDel
		}
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
	} else if !s.RemoveEdge(c.Src, c.Dst, dir) {
		return false
	}
	s.active[cp.Key()] = struct{}{}
	return true
}

// ApplyBatch applies a change batch in direction dir and returns the
// affected-vertex frontier: the sorted set of locally stored endpoints
// whose topology actually changed (§4.3: "only vertices directly modified
// in the batch are activated"). Like Apply, it marks them active and logs
// the inserted copies; incremental runs seed from those (TakeFresh,
// TakeActive).
func (s *Store) ApplyBatch(b Batch, dir Dir) []VertexID {
	if len(b) == 0 {
		return nil
	}
	touched := make(map[VertexID]struct{}, len(b))
	for _, c := range b {
		if s.Apply(c, dir) {
			if dir == Out {
				touched[c.Src] = struct{}{}
			} else {
				touched[c.Dst] = struct{}{}
			}
		}
	}
	if len(touched) == 0 {
		return nil
	}
	frontier := make([]VertexID, 0, len(touched))
	for v := range touched {
		frontier = append(frontier, v)
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	return frontier
}

// HasCopy reports whether the store holds copy c.
func (s *Store) HasCopy(c EdgeCopy) bool {
	key, nbr := c.Key(), c.Nbr()
	rec, ok := s.slots[key]
	if !ok {
		return false
	}
	sealed, t := s.sealedOutRun(rec), rec.tail
	var add, del []VertexID
	if t != nil {
		add, del = t.outAdd, t.outDel
	}
	if c.Dir == In {
		sealed = s.sealedInRun(rec)
		if t != nil {
			add, del = t.inAdd, t.inDel
		}
	}
	if sortedContains(sealed, nbr) {
		return !sortedContains(del, nbr)
	}
	return sortedContains(add, nbr)
}

// HasVertex reports whether v has any local presence.
func (s *Store) HasVertex(v VertexID) bool {
	_, ok := s.slots[v]
	return ok
}

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
	s.OutCursorInto(&c, v)
	return c
}

// InCursor returns a cursor over v's locally stored in-neighbours.
func (s *Store) InCursor(v VertexID) Cursor {
	var c Cursor
	s.InCursorInto(&c, v)
	return c
}

// OutCursorInto points c at v's locally stored out-neighbours. Building the
// cursor where it will be used spares hot loops the copy of the 96-byte
// value that OutCursor returns.
func (s *Store) OutCursorInto(c *Cursor, v VertexID) {
	*c = Cursor{}
	rec, ok := s.slots[v]
	if !ok {
		return
	}
	c.sealed = s.sealedOutRun(rec)
	if t := rec.tail; t != nil {
		c.del, c.add = t.outDel, t.outAdd
	}
}

// InCursorInto is OutCursorInto for v's in-neighbours.
func (s *Store) InCursorInto(c *Cursor, v VertexID) {
	*c = Cursor{}
	rec, ok := s.slots[v]
	if !ok {
		return
	}
	c.sealed = s.sealedInRun(rec)
	if t := rec.tail; t != nil {
		c.del, c.add = t.inDel, t.inAdd
	}
}

// SealedRun returns v's sealed run in direction dir, the run's offset in the
// store-wide sealed array of that direction, and whether the run is all of
// v's neighbours there — no tail adds or deletes, the steady-state majority.
// A caller may keep data parallel to the sealed array, indexed from off, for
// as long as Compactions and SealedLen stay what they were; the run itself
// follows the Cursor lifetime rule.
func (s *Store) SealedRun(v VertexID, dir Dir) (run []VertexID, off int, whole bool) {
	rec := s.slots[v]
	t := rec.tail
	if dir == Out {
		return s.sealedOutRun(rec), int(rec.outStart), t == nil || len(t.outAdd)+len(t.outDel) == 0
	}
	return s.sealedInRun(rec), int(rec.inStart), t == nil || len(t.inAdd)+len(t.inDel) == 0
}

// SealedLen returns the length of the store-wide sealed array of direction
// dir, dead entries included.
func (s *Store) SealedLen(dir Dir) int {
	if dir == Out {
		return len(s.sealedOut)
	}
	return len(s.sealedIn)
}

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

// ForEachIn calls fn for every locally stored in-neighbour of v in
// ascending ID order until fn returns false.
func (s *Store) ForEachIn(v VertexID, fn func(VertexID) bool) {
	var it Cursor
	for s.InCursorInto(&it, v); ; {
		u, ok := it.Next()
		if !ok || !fn(u) {
			return
		}
	}
}

// Degree returns v's local out- and in-degrees in O(1).
func (s *Store) Degree(v VertexID) (out, in int) {
	rec, ok := s.slots[v]
	if !ok {
		return 0, 0
	}
	return liveDegrees(rec)
}

// OutDegree returns the local out-degree of v.
func (s *Store) OutDegree(v VertexID) int {
	out, _ := s.Degree(v)
	return out
}

// InDegree returns the local in-degree of v.
func (s *Store) InDegree(v VertexID) int {
	_, in := s.Degree(v)
	return in
}

// AppendOut appends v's out-neighbours (ascending) onto buf — the
// slice-materializing convenience for tests and snapshots; hot paths use
// cursors.
func (s *Store) AppendOut(v VertexID, buf []VertexID) []VertexID {
	s.ForEachOut(v, func(w VertexID) bool {
		buf = append(buf, w)
		return true
	})
	return buf
}

// AppendIn appends v's in-neighbours (ascending) onto buf.
func (s *Store) AppendIn(v VertexID, buf []VertexID) []VertexID {
	s.ForEachIn(v, func(u VertexID) bool {
		buf = append(buf, u)
		return true
	})
	return buf
}

// Vertices calls fn for every locally present vertex until fn returns
// false. Iteration order is unspecified.
func (s *Store) Vertices(fn func(VertexID) bool) {
	for v := range s.slots {
		if !fn(v) {
			return
		}
	}
}

// VertexList returns all locally present vertices, sorted (deterministic
// iteration for tests and checkpoints).
func (s *Store) VertexList() []VertexID {
	out := make([]VertexID, 0, len(s.slots))
	for v := range s.slots {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarkActive adds v to the active set consumed by the next superstep. The
// fresh log does not say why v is active, so it is abandoned.
func (s *Store) MarkActive(v VertexID) {
	s.active[v] = struct{}{}
	s.loseFresh()
}

// IsActive reports whether v is in the active set.
func (s *Store) IsActive(v VertexID) bool {
	_, ok := s.active[v]
	return ok
}

// ClearActive removes v from the active set.
func (s *Store) ClearActive(v VertexID) { delete(s.active, v) }

// ActiveCount returns the size of the active set — between batch boundary
// and run start this is the frontier the next delta recompute seeds from.
func (s *Store) ActiveCount() int { return len(s.active) }

// TakeActive returns the current active set sorted and resets it, and with
// it the fresh log. Incremental runs seed their first superstep from this
// set (§4.3: "only vertices directly modified in the batch are
// activated"): while the fresh log taken just before it is intact, its
// copies are the only edges those vertices announce along.
func (s *Store) TakeActive() []VertexID {
	s.restartFresh()
	if len(s.active) == 0 {
		return nil
	}
	out := make([]VertexID, 0, len(s.active))
	for v := range s.active {
		out = append(out, v)
	}
	s.active = make(map[VertexID]struct{})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ActivateAll marks every local vertex active (static from-scratch runs),
// abandoning the fresh log.
func (s *Store) ActivateAll() {
	s.loseFresh()
	for v := range s.slots {
		s.active[v] = struct{}{}
	}
}

// Copies calls fn for every stored edge copy until fn returns false. It is
// the enumeration tests and tools check a store by; migration does not
// visit copies, it walks Vertices and moves their runs (AddRun, RemoveRun,
// DropVertex).
func (s *Store) Copies(fn func(EdgeCopy) bool) {
	for v := range s.slots {
		if !s.CopiesOf(v, fn) {
			return
		}
	}
}

// CopiesOf calls fn for every edge copy stored under vertex v (its out
// copies, then its in copies) until fn returns false, and reports whether
// the walk ran to the end.
func (s *Store) CopiesOf(v VertexID, fn func(EdgeCopy) bool) bool {
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

// MemoryBytes estimates the store's heap footprint in O(1) from
// maintained counters: sealed array capacity, per-slot map overhead, and
// tail records. It is an estimate (Go map internals are approximated at
// 48 bytes per slot entry), but a consistent one — the bytes/edge metric
// and the MapStore comparison use the same accounting rules.
func (s *Store) MemoryBytes() uint64 {
	const (
		slotBytes    = 48  // map entry (key+slotRec) incl. bucket overhead
		tailRecBytes = 112 // tailRec struct + object header
		setBytes     = 16  // active/pin set entry
	)
	b := uint64(cap(s.sealedOut)+cap(s.sealedIn)) * 8
	b += uint64(len(s.slots)) * slotBytes
	b += uint64(s.tailRecs) * tailRecBytes
	// Tail entry slack: sorted-insert slices run near capacity; 2x covers
	// append doubling.
	b += uint64(s.tailOps) * 16
	b += uint64(len(s.active)+len(s.pinEmpty)) * setBytes
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

// String summarizes the store for logs.
func (s *Store) String() string {
	return fmt.Sprintf("store{v=%d out=%d in=%d sealed=%d tail=%d dead=%d active=%d compactions=%d}",
		len(s.slots), s.numOut, s.numIn,
		len(s.sealedOut)+len(s.sealedIn), s.tailOps, s.deadSealed,
		len(s.active), s.compactions.Load())
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
		rec := s.slots[v]
		if run := s.sealedOutRun(rec); len(run) > 0 && !fn(v, Out, run) {
			return
		}
		if run := s.sealedInRun(rec); len(run) > 0 && !fn(v, In, run) {
			return
		}
	}
}

// TailCopies calls fn for every delta-log entry — adds and deletes
// recorded since the current sealed generation — until fn returns false.
// deleted=true entries cancel a sealed entry; deleted=false entries are
// inserts not yet folded into a sealed run.
func (s *Store) TailCopies(fn func(c EdgeCopy, deleted bool) bool) {
	for _, v := range s.VertexList() {
		rec := s.slots[v]
		if rec.tail == nil {
			continue
		}
		for _, w := range rec.tail.outAdd {
			if !fn(EdgeCopy{Src: v, Dst: w, Dir: Out}, false) {
				return
			}
		}
		for _, w := range rec.tail.outDel {
			if !fn(EdgeCopy{Src: v, Dst: w, Dir: Out}, true) {
				return
			}
		}
		for _, u := range rec.tail.inAdd {
			if !fn(EdgeCopy{Src: u, Dst: v, Dir: In}, false) {
				return
			}
		}
		for _, u := range rec.tail.inDel {
			if !fn(EdgeCopy{Src: u, Dst: v, Dir: In}, true) {
				return
			}
		}
	}
}

// ActiveList returns the active set sorted without consuming it (unlike
// TakeActive), so checkpoints can record activation non-destructively.
func (s *Store) ActiveList() []VertexID {
	if len(s.active) == 0 {
		return nil
	}
	out := make([]VertexID, 0, len(s.active))
	for v := range s.active {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
