package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomRun returns up to max distinct neighbours from the universe,
// ascending — the shape AddRun and RemoveRun require.
func randomRun(rng *rand.Rand, universe, max int) []VertexID {
	var run []VertexID
	for w := 0; w < universe; w++ {
		if len(run) < max && rng.Intn(universe) < max {
			run = append(run, VertexID(w))
		}
	}
	return run
}

// sealedRunOf returns v's sealed run in direction dir, its offset, and
// whether it is all of v's neighbours there, as RunsInto reports them.
func sealedRunOf(s *Store, v VertexID, dir Dir) (run []VertexID, off int, whole bool) {
	var r VertexRuns
	s.RunsInto(&r, v)
	return r.Run[dir], r.Off[dir], r.Whole[dir]
}

// runAsEdge names the copy of neighbour w stored under key in direction dir.
func runAsEdge(key, w VertexID, dir Dir) (u, v VertexID) {
	if dir == In {
		return w, key
	}
	return key, w
}

// flipParity reduces a flip log to the vertices logged an odd number of
// times: the ones whose presence differs from when the log was started.
func flipParity(t *testing.T, s *Store) map[VertexID]bool {
	t.Helper()
	flips, ok := s.TakeFlips()
	if !ok {
		t.Fatal("flip log abandoned; the script takes it too rarely")
	}
	odd := map[VertexID]bool{}
	for _, v := range flips {
		if odd[v] = !odd[v]; !odd[v] {
			delete(odd, v)
		}
	}
	return odd
}

// emptyDirection picks, from a random start, a key in the universe that
// holds nothing in direction dir.
func emptyDirection(s *Store, rng *rand.Rand, universe int, dir Dir) (VertexID, bool) {
	for i, start := 0, rng.Intn(universe); i < universe; i++ {
		key := VertexID((start + i) % universe)
		if out, in := s.Degree(key); dir == Out && out == 0 || dir == In && in == 0 {
			return key, true
		}
	}
	return 0, false
}

// compareRunStores asserts the store edited by runs, the store edited one
// copy at a time and the map reference agree on everything observable, and
// that a sealed run reported whole is all of its vertex's neighbours there.
func compareRunStores(t *testing.T, bulk, edge *Store, ms *MapStore) {
	t.Helper()
	fullCompare(t, bulk, ms)
	fullCompare(t, edge, ms)
	for _, s := range []*Store{bulk, edge} {
		for _, v := range s.VertexList() {
			for _, dir := range []Dir{Out, In} {
				nbrs := nbrsOf(s, v, dir)
				if run, _, whole := sealedRunOf(s, v, dir); whole && !slices.Equal(run, nbrs) {
					t.Fatalf("vertex %d dir %d: sealed run %v reported whole, neighbours %v", v, dir, run, nbrs)
				}
			}
		}
	}
	bf, ef := flipParity(t, bulk), flipParity(t, edge)
	if len(bf) != len(ef) {
		t.Fatalf("flip parity: bulk %v, per-edge %v", bf, ef)
	}
	for v := range bf {
		if !ef[v] {
			t.Fatalf("flip parity: bulk %v, per-edge %v", bf, ef)
		}
	}
	if ba, ea := bulk.ActiveList(), edge.ActiveList(); !slices.Equal(ba, ea) {
		t.Fatalf("active sets: bulk %v, per-edge %v", ba, ea)
	}
	for v := range ms.pinEmpty {
		if p := bulk.find(v); p < 0 || bulk.recs[p].meta&isPinned == 0 {
			t.Fatalf("pinned vertex %d missing from the bulk store, or not pinned there", v)
		}
	}
}

// TestRunEditsMatchPerEdgeModel drives AddRun, RemoveRun and DropVertex on
// one Store against per-copy AddEdge/RemoveEdge on a second Store and on
// the MapStore reference, through random scripts that mix in stream edits,
// pins, random compaction thresholds and forced compactions. Half the runs
// that arrive target a direction holding nothing, which AddRun seals as it
// is. Return counts, edge and vertex counts, neighbour order, flip parity,
// the active set, pins and what SealedRun calls whole must agree throughout,
// and the footprint once both are compacted.
func TestRunEditsMatchPerEdgeModel(t *testing.T) {
	const (
		scripts  = 320
		opsPer   = 160
		universe = 20
	)
	sealings := 0
	for seed := int64(0); seed < scripts; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bulk, edge, ms := NewStore(), NewStore(), NewMapStore()
		bulk.SetCompactMin(1 + rng.Intn(24))
		edge.SetCompactMin(1 + rng.Intn(24))
		for op := 0; op < opsPer; op++ {
			key := VertexID(rng.Intn(universe))
			dir := Dir(rng.Intn(2))
			switch rng.Intn(12) {
			case 0, 1, 2: // a run arrives, half the time where nothing is held
				if rng.Intn(2) == 0 {
					if k, ok := emptyDirection(bulk, rng, universe, dir); ok {
						key = k
					}
				}
				run := randomRun(rng, universe, 1+rng.Intn(universe))
				if rng.Intn(8) == 0 {
					run = nil
				}
				out, in := bulk.Degree(key)
				held, _, _ := sealedRunOf(bulk, key, dir) // perhaps all delete-logged
				sealing := len(run) > 0 && len(held) == 0 && (dir == Out && out == 0 || dir == In && in == 0)
				compactions, sealedLen := bulk.Compactions(), bulk.SealedLen(dir)
				want := 0
				for _, w := range run {
					u, v := runAsEdge(key, w, dir)
					added := edge.AddEdge(u, v, dir)
					if ms.AddEdge(u, v, dir) != added {
						t.Fatalf("seed %d op %d: reference stores disagree on AddEdge", seed, op)
					}
					if added {
						want++
					}
				}
				if got := bulk.AddRun(key, dir, run); got != want {
					t.Fatalf("seed %d op %d: AddRun(%d,%d,%v) = %d, per-edge %d", seed, op, key, dir, run, got, want)
				}
				if sealing {
					sealings++
					// An empty direction takes the run as its sealed run, at
					// the end of the array, compacting nothing.
					sealed, off, whole := sealedRunOf(bulk, key, dir)
					if !whole || !slices.Equal(sealed, run) || off != sealedLen || bulk.Compactions() != compactions {
						t.Fatalf("seed %d op %d: AddRun(%d,%d,%v) into an empty direction left sealed %v at %d (whole %v, array was %d), %d compactions",
							seed, op, key, dir, run, sealed, off, whole, sealedLen, bulk.Compactions()-compactions)
					}
				}
			case 3, 4: // a run leaves
				run := randomRun(rng, universe, 1+rng.Intn(universe))
				want := 0
				for _, w := range run {
					u, v := runAsEdge(key, w, dir)
					removed := edge.RemoveEdge(u, v, dir)
					if ms.RemoveEdge(u, v, dir) != removed {
						t.Fatalf("seed %d op %d: reference stores disagree on RemoveEdge", seed, op)
					}
					if removed {
						want++
					}
				}
				if got := bulk.RemoveRun(key, dir, run); got != want {
					t.Fatalf("seed %d op %d: RemoveRun(%d,%d,%v) = %d, per-edge %d", seed, op, key, dir, run, got, want)
				}
			case 5: // a whole vertex leaves
				outs, ins := nbrsOf(edge, key, Out), nbrsOf(edge, key, In)
				for _, w := range outs {
					edge.RemoveEdge(key, w, Out)
					ms.RemoveEdge(key, w, Out)
				}
				for _, u := range ins {
					edge.RemoveEdge(u, key, In)
					ms.RemoveEdge(u, key, In)
				}
				if out, in := bulk.DropVertex(key); out != len(outs) || in != len(ins) {
					t.Fatalf("seed %d op %d: DropVertex(%d) = (%d,%d), vertex held (%d,%d)", seed, op, key, out, in, len(outs), len(ins))
				}
			case 6, 7, 8: // stream edits, which mark the endpoint active
				c := Change{Action: Action(rng.Intn(2)), Src: key, Dst: VertexID(rng.Intn(universe))}
				b, e, m := bulk.Apply(c, dir), edge.Apply(c, dir), ms.Apply(c, dir)
				if b != e || e != m {
					t.Fatalf("seed %d op %d: Apply(%+v,%d) bulk=%v edge=%v map=%v", seed, op, c, dir, b, e, m)
				}
			case 9:
				bulk.Pin(key)
				edge.Pin(key)
				ms.Pin(key)
			case 10:
				bulk.Unpin(key)
				edge.Unpin(key)
				ms.Unpin(key)
			case 11: // generation turnover, independently on either side
				if rng.Intn(2) == 0 {
					bulk.Compact()
				} else {
					edge.Compact()
				}
				bulk.MaybeCompact()
			}
			if op%16 == 15 {
				compareRunStores(t, bulk, edge, ms)
			}
		}
		compareRunStores(t, bulk, edge, ms)
		ms.TakeActive()
		if b, e := bulk.TakeActive(), edge.TakeActive(); !slices.Equal(b, e) {
			t.Fatalf("seed %d: TakeActive bulk %v, per-edge %v", seed, b, e)
		}
		bulk.Compact()
		edge.Compact()
		if b, e := bulk.MemoryBytes(), edge.MemoryBytes(); b != e {
			t.Fatalf("seed %d: compacted footprint bulk %d B, per-edge %d B", seed, b, e)
		}
		fullCompare(t, bulk, ms)
	}
	if sealings < scripts {
		t.Fatalf("%d runs sealed into empty directions over %d scripts: the append path is barely exercised", sealings, scripts)
	}
}

// TestRunEditCases pins the corners of the run contract one at a time.
func TestRunEditCases(t *testing.T) {
	sealed := func() *Store {
		s := NewStore()
		s.SetCompactMin(1 << 30)
		for _, w := range []VertexID{10, 20, 30, 40} {
			s.AddEdge(1, w, Out)
		}
		s.Compact()
		return s
	}
	out := func(s *Store) []VertexID { return nbrsOf(s, 1, Out) }

	t.Run("empty run", func(t *testing.T) {
		s := sealed()
		if n := s.AddRun(1, Out, nil); n != 0 {
			t.Fatalf("AddRun of nothing stored %d copies", n)
		}
		if n := s.AddRun(7, In, nil); n != 0 || s.HasVertex(7) {
			t.Fatalf("AddRun of nothing created vertex 7 (n=%d)", n)
		}
		if n := s.RemoveRun(1, Out, nil); n != 0 || s.NumOutEdges() != 4 {
			t.Fatalf("RemoveRun of nothing removed %d copies", n)
		}
	})
	t.Run("fresh vertex takes the run whole", func(t *testing.T) {
		s := sealed()
		run := []VertexID{3, 5, 8}
		if n := s.AddRun(2, In, run); n != 3 || s.NumEdgeCopies()-s.NumOutEdges() != 3 {
			t.Fatalf("AddRun stored %d copies, store counts %d", n, s.NumEdgeCopies()-s.NumOutEdges())
		}
		run[0] = 99 // the store must own its copy of the run
		if got := nbrsOf(s, 2, In); !slices.Equal(got, []VertexID{3, 5, 8}) {
			t.Fatalf("in-neighbours %v", got)
		}
	})
	t.Run("revive of a delete-logged entry", func(t *testing.T) {
		s := sealed()
		s.RemoveEdge(1, 20, Out)
		s.RemoveEdge(1, 40, Out)
		if n := s.AddRun(1, Out, []VertexID{10, 20, 25}); n != 2 {
			t.Fatalf("AddRun = %d, want 2 (one revived, one new, one already held)", n)
		}
		if got := out(s); !slices.Equal(got, []VertexID{10, 20, 25, 30}) {
			t.Fatalf("out-neighbours %v", got)
		}
		if s.tailOps != 2 || s.deadSealed != 1 {
			t.Fatalf("tailOps=%d deadSealed=%d, want the add of 25 and the delete of 40", s.tailOps, s.deadSealed)
		}
	})
	t.Run("remove of a tail-added entry", func(t *testing.T) {
		s := sealed()
		s.AddEdge(1, 15, Out)
		s.AddEdge(1, 35, Out)
		if n := s.RemoveRun(1, Out, []VertexID{15, 30, 33}); n != 2 {
			t.Fatalf("RemoveRun = %d, want 2 (one erased, one delete-logged, one never held)", n)
		}
		if got := out(s); !slices.Equal(got, []VertexID{10, 20, 35, 40}) {
			t.Fatalf("out-neighbours %v", got)
		}
		if s.tailOps != 2 || s.deadSealed != 1 {
			t.Fatalf("tailOps=%d deadSealed=%d, want the add of 35 and the delete of 30", s.tailOps, s.deadSealed)
		}
	})
	t.Run("pinned empty vertex", func(t *testing.T) {
		s := sealed()
		s.Pin(9)
		s.TakeFlips()
		if n := s.AddRun(9, Out, []VertexID{1, 2}); n != 2 {
			t.Fatalf("AddRun on a pinned empty vertex = %d", n)
		}
		if flips, _ := s.TakeFlips(); len(flips) != 0 {
			t.Fatalf("a pinned vertex was already present, yet flipped: %v", flips)
		}
		if n := s.RemoveRun(9, Out, []VertexID{1, 2}); n != 2 || !s.HasVertex(9) {
			t.Fatalf("RemoveRun = %d, pinned vertex present = %v", n, s.HasVertex(9))
		}
		s.Pin(1)
		if o, i := s.DropVertex(1); o != 4 || i != 0 || !s.HasVertex(1) || s.NumOutEdges() != 0 {
			t.Fatalf("DropVertex of a pinned vertex = (%d,%d), present=%v, %d out copies left", o, i, s.HasVertex(1), s.NumOutEdges())
		}
		s.Compact()
		if out, _ := s.Degree(1); !s.HasVertex(1) || out != 0 {
			t.Fatal("pinned vertex lost across compaction after DropVertex")
		}
	})
	t.Run("drop inside a walk", func(t *testing.T) {
		s := NewStore()
		s.SetCompactMin(4)
		for v := VertexID(0); v < 64; v++ {
			s.AddRun(v, Out, []VertexID{v + 1, v + 2})
		}
		compactions := s.Compactions()
		s.Vertices(func(v VertexID) bool {
			if v%2 == 0 {
				s.DropVertex(v)
			} else {
				s.RemoveRun(v, Out, []VertexID{v + 1})
			}
			return true
		})
		if s.Compactions() != compactions {
			t.Fatal("a bulk edit compacted during the walk")
		}
		if s.NumVertices() != 32 || s.NumOutEdges() != 32 {
			t.Fatalf("%d vertices, %d out copies after the walk, want 32 and 32", s.NumVertices(), s.NumOutEdges())
		}
		s.MaybeCompact()
		if s.Compactions() == compactions {
			t.Fatal("MaybeCompact ignored a tail far over the threshold")
		}
	})
}

// TestVersionMovesOnEveryEdit: Version moves on every edit that changes a
// held copy or the sealed layout — tail inserts and deletes included, which
// leave SealedVersion where it was — and stands on an edit that changes
// nothing.
func TestVersionMovesOnEveryEdit(t *testing.T) {
	s := NewStore()
	s.AddRun(1, Out, []VertexID{2, 3})
	edits := []struct {
		name  string
		edit  func() bool
		moves bool
	}{
		{"tail insert", func() bool { return s.AddEdge(1, 4, Out) }, true},
		{"duplicate insert", func() bool { return s.AddEdge(1, 4, Out) }, false},
		{"sealed delete", func() bool { return s.RemoveEdge(1, 2, Out) }, true},
		{"tail delete", func() bool { return s.RemoveEdge(1, 4, Out) }, true},
		{"absent delete", func() bool { return s.RemoveEdge(1, 9, Out) }, false},
		{"run insert", func() bool { return s.AddRun(1, Out, []VertexID{5, 6}) == 2 }, true},
		{"run delete", func() bool { return s.RemoveRun(1, Out, []VertexID{5}) == 1 }, true},
		{"compaction", func() bool { s.Compact(); return true }, true},
		{"drop", func() bool { out, _ := s.DropVertex(1); return out > 0 }, true},
	}
	for _, e := range edits {
		before, sealed := s.Version(), s.SealedVersion()
		if changed := e.edit(); changed != e.moves {
			t.Fatalf("%s: changed the store %v", e.name, changed)
		}
		if moved := s.Version() != before; moved != e.moves {
			t.Fatalf("%s: Version moved %v, want %v (SealedVersion %d → %d)", e.name, moved, e.moves, sealed, s.SealedVersion())
		}
	}
}
