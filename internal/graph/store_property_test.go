package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// nbrsOf returns v's neighbours in direction dir, in the order s's cursors
// yield them.
func nbrsOf(s *Store, v VertexID, dir Dir) []VertexID {
	it := s.OutCursor(v)
	if dir == In {
		it = s.InCursor(v)
	}
	var out []VertexID
	for w, ok := it.Next(); ok; w, ok = it.Next() {
		out = append(out, w)
	}
	return out
}

// fullCompare asserts the CSR+delta store and the reference map store are
// observationally identical through the EdgeStore interface and their
// neighbour lists.
func fullCompare(t *testing.T, cs *Store, ms *MapStore) {
	t.Helper()
	if cs.NumVertices() != ms.NumVertices() {
		t.Fatalf("NumVertices: csr=%d map=%d", cs.NumVertices(), ms.NumVertices())
	}
	if cs.NumOutEdges() != ms.NumOutEdges() || cs.NumEdgeCopies() != ms.NumEdgeCopies() {
		t.Fatalf("edge counts (out, all): csr=(%d,%d) map=(%d,%d)",
			cs.NumOutEdges(), cs.NumEdgeCopies(), ms.NumOutEdges(), ms.NumEdgeCopies())
	}
	cvl, mvl := cs.VertexList(), ms.VertexList()
	if len(cvl) != len(mvl) {
		t.Fatalf("VertexList length: csr=%v map=%v", cvl, mvl)
	}
	for i := range cvl {
		if cvl[i] != mvl[i] {
			t.Fatalf("VertexList[%d]: csr=%d map=%d", i, cvl[i], mvl[i])
		}
	}
	for _, v := range cvl {
		co, ci := cs.Degree(v)
		mo, mi := ms.Degree(v)
		if co != mo || ci != mi {
			t.Fatalf("Degree(%d): csr=(%d,%d) map=(%d,%d)", v, co, ci, mo, mi)
		}
		cOut, mOut := nbrsOf(cs, v, Out), ms.nbrs(v, Out)
		cIn, mIn := nbrsOf(cs, v, In), ms.nbrs(v, In)
		if len(cOut) != len(mOut) || len(cIn) != len(mIn) {
			t.Fatalf("neighbour lengths for %d differ", v)
		}
		for i := range cOut {
			if cOut[i] != mOut[i] {
				t.Fatalf("out[%d] of %d: csr=%d map=%d (order must be canonical ascending)",
					i, v, cOut[i], mOut[i])
			}
		}
		for i := range cIn {
			if cIn[i] != mIn[i] {
				t.Fatalf("in[%d] of %d: csr=%d map=%d", i, v, cIn[i], mIn[i])
			}
		}
	}
	if ca, ma := cs.ActiveList(), ms.ActiveList(); cs.ActiveCount() != ms.ActiveCount() || !slices.Equal(ca, ma) {
		t.Fatalf("active sets: csr=%v (count %d) map=%v", ca, cs.ActiveCount(), ma)
	}
	for v := range ms.pinEmpty {
		if p := cs.find(v); p < 0 || cs.recs[p].meta&isPinned == 0 {
			t.Fatalf("vertex %d pinned in the map store, not in the csr store", v)
		}
	}
	cCopies := map[EdgeCopy]bool{}
	cs.Copies(func(c EdgeCopy) bool { cCopies[c] = true; return true })
	n := 0
	ms.Copies(func(c EdgeCopy) bool {
		n++
		if !cCopies[c] {
			t.Fatalf("map store copy %+v missing from csr store", c)
		}
		return true
	})
	if n != len(cCopies) {
		t.Fatalf("copy counts: csr=%d map=%d", len(cCopies), n)
	}
}

// TestStoreEquivalenceProperty drives the CSR+delta store and the map
// reference through randomized insert/delete/batch/pin/compact/migrate
// sequences, with the vertex flags' calls (Pin, Unpin, DropVertex,
// MarkActive, ClearActive, TakeActive) among them, and asserts
// observational equivalence throughout. Vertex and neighbour IDs draw from
// a small universe so deletes hit the swap-remove path (map store), the
// sealed delete-log path (CSR store) and the index's backward-shift delete
// constantly.
func TestStoreEquivalenceProperty(t *testing.T) {
	const (
		seeds    = 20
		opsPer   = 600
		universe = 24
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cs := NewStore()
		// Tiny compaction threshold: sealed generations turn over every
		// few operations, so sequences cross sealed/tail boundaries.
		cs.SetCompactMin(1 + rng.Intn(16))
		ms := NewMapStore()

		randDir := func() Dir {
			if rng.Intn(2) == 0 {
				return Out
			}
			return In
		}
		for op := 0; op < opsPer; op++ {
			u := VertexID(rng.Intn(universe))
			v := VertexID(rng.Intn(universe))
			switch rng.Intn(14) {
			case 0, 1, 2, 3: // insert
				dir := randDir()
				if cs.AddEdge(u, v, dir) != ms.AddEdge(u, v, dir) {
					t.Fatalf("seed %d op %d: AddEdge(%d,%d,%d) disagreed", seed, op, u, v, dir)
				}
			case 4, 5, 6: // delete
				dir := randDir()
				if cs.RemoveEdge(u, v, dir) != ms.RemoveEdge(u, v, dir) {
					t.Fatalf("seed %d op %d: RemoveEdge(%d,%d,%d) disagreed", seed, op, u, v, dir)
				}
			case 7: // batch apply; frontiers must match exactly
				b := make(Batch, rng.Intn(8))
				for i := range b {
					b[i] = Change{
						Action: Action(rng.Intn(2)),
						Src:    VertexID(rng.Intn(universe)),
						Dst:    VertexID(rng.Intn(universe)),
					}
				}
				dir := randDir()
				cf, mf := cs.ApplyBatch(b, dir), ms.ApplyBatch(b, dir)
				if len(cf) != len(mf) {
					t.Fatalf("seed %d op %d: frontiers csr=%v map=%v", seed, op, cf, mf)
				}
				for i := range cf {
					if cf[i] != mf[i] {
						t.Fatalf("seed %d op %d: frontier[%d] csr=%d map=%d", seed, op, i, cf[i], mf[i])
					}
				}
			case 8: // pin / unpin
				if rng.Intn(2) == 0 {
					cs.Pin(u)
					ms.Pin(u)
				} else {
					cs.Unpin(u)
					ms.Unpin(u)
				}
			case 9: // migrate-style churn: enumerate, ship away, re-own some
				var copies []EdgeCopy
				cs.Copies(func(c EdgeCopy) bool {
					copies = append(copies, c)
					return true
				})
				if len(copies) == 0 {
					continue
				}
				k := 1 + rng.Intn(len(copies))
				for _, c := range copies[:k] {
					cs.RemoveEdge(c.Src, c.Dst, c.Dir)
					ms.RemoveEdge(c.Src, c.Dst, c.Dir)
				}
				for _, c := range copies[:k/2] { // half migrate back
					cs.AddEdge(c.Src, c.Dst, c.Dir)
					ms.AddEdge(c.Src, c.Dst, c.Dir)
				}
			case 10: // a whole vertex leaves
				co, ci := cs.DropVertex(u)
				if mo, mi := ms.DropVertex(u); co != mo || ci != mi {
					t.Fatalf("seed %d op %d: DropVertex(%d) csr=(%d,%d) map=(%d,%d)", seed, op, u, co, ci, mo, mi)
				}
			case 11: // activity, held or not
				if rng.Intn(2) == 0 {
					cs.MarkActive(u)
					ms.MarkActive(u)
				} else {
					cs.ClearActive(u)
					ms.ClearActive(u)
				}
				if cs.IsActive(u) != ms.IsActive(u) || cs.IsActive(v) != ms.IsActive(v) {
					t.Fatalf("seed %d op %d: IsActive disagrees on %d or %d", seed, op, u, v)
				}
			case 12:
				if ca, ma := cs.TakeActive(), ms.TakeActive(); !slices.Equal(ca, ma) {
					t.Fatalf("seed %d op %d: TakeActive csr=%v map=%v", seed, op, ca, ma)
				}
			case 13: // a vertex comes and goes: the index's delete and re-insert
				cs.AddEdge(u, v, Out)
				ms.AddEdge(u, v, Out)
				cs.RemoveEdge(u, v, Out)
				ms.RemoveEdge(u, v, Out)
			}
			if rng.Intn(13) == 0 {
				cs.Compact() // forced generation turnover mid-sequence
			}
			if op%97 == 0 {
				fullCompare(t, cs, ms)
			}
		}
		// Drain activations identically, then final deep compare.
		ca, ma := cs.TakeActive(), ms.TakeActive()
		if len(ca) != len(ma) {
			t.Fatalf("seed %d: TakeActive csr=%v map=%v", seed, ca, ma)
		}
		for i := range ca {
			if ca[i] != ma[i] {
				t.Fatalf("seed %d: TakeActive[%d] csr=%d map=%d", seed, i, ca[i], ma[i])
			}
		}
		fullCompare(t, cs, ms)
	}
}

// TestPinnedVertexSurvivesCompaction pins an isolated vertex, forces a
// compaction, and asserts it still exists with an empty (but valid) run.
func TestPinnedVertexSurvivesCompaction(t *testing.T) {
	s := NewStore()
	s.Pin(42)
	s.AddEdge(1, 2, Out)
	s.AddEdge(42, 7, Out)
	s.RemoveEdge(42, 7, Out)
	s.Compact()
	if !s.HasVertex(42) {
		t.Fatal("pinned vertex dropped by compaction")
	}
	if out, in := s.Degree(42); out != 0 || in != 0 {
		t.Fatalf("pinned vertex degree (%d,%d), want (0,0)", out, in)
	}
	s.Unpin(42)
	if s.HasVertex(42) {
		t.Fatal("unpinned empty vertex survived")
	}
	if !s.HasVertex(1) {
		t.Fatal("compaction lost an unrelated vertex")
	}
}

// TestIterationOrderDeterministic builds the same logical graph under
// three compaction regimes — never, constantly, and at random points —
// and asserts neighbour iteration yields the identical ascending sequence
// from each, regardless of how edges are split between sealed runs and
// the tail.
func TestIterationOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type edit struct {
		c   Change
		dir Dir
	}
	var script []edit
	for i := 0; i < 800; i++ {
		script = append(script, edit{
			c: Change{
				Action: Action(rng.Intn(2)),
				Src:    VertexID(rng.Intn(32)),
				Dst:    VertexID(rng.Intn(32)),
			},
			dir: Dir(rng.Intn(2)),
		})
	}
	never := NewStore()
	never.SetCompactMin(1 << 30)
	always := NewStore()
	always.SetCompactMin(1)
	random := NewStore()
	random.SetCompactMin(1 << 30)
	for _, e := range script {
		never.Apply(e.c, e.dir)
		always.Apply(e.c, e.dir)
		random.Apply(e.c, e.dir)
		if rng.Intn(50) == 0 {
			random.Compact()
		}
	}
	if always.Compactions() == 0 {
		t.Fatal("test misconfigured: 'always' store never compacted")
	}
	vl := never.VertexList()
	for _, v := range vl {
		a, b, c := nbrsOf(never, v, Out), nbrsOf(always, v, Out), nbrsOf(random, v, Out)
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("out-degree of %d differs across compaction regimes", v)
		}
		for i := range a {
			if a[i] != b[i] || a[i] != c[i] {
				t.Fatalf("out[%d] of %d: never=%d always=%d random=%d", i, v, a[i], b[i], c[i])
			}
			if i > 0 && a[i-1] >= a[i] {
				t.Fatalf("out neighbours of %d not strictly ascending: %v", v, a)
			}
		}
		ai, bi, ci := nbrsOf(never, v, In), nbrsOf(always, v, In), nbrsOf(random, v, In)
		for i := range ai {
			if ai[i] != bi[i] || ai[i] != ci[i] {
				t.Fatalf("in[%d] of %d differs across regimes", i, v)
			}
		}
	}
}

// TestCursorZeroAlloc asserts neighbour iteration over mixed sealed+tail
// state performs no heap allocation — the property the superstep hot path
// ceiling depends on.
func TestCursorZeroAlloc(t *testing.T) {
	s := NewStore()
	s.SetCompactMin(1 << 30)
	for i := 0; i < 64; i++ {
		s.AddEdge(1, VertexID(10+i*2), Out)
	}
	s.Compact() // seal the even neighbours
	for i := 0; i < 32; i++ {
		s.AddEdge(1, VertexID(11+i*4), Out) // odd adds land in the tail
		s.RemoveEdge(1, VertexID(10+i*8), Out)
	}
	var sink VertexID
	allocs := testing.AllocsPerRun(100, func() {
		for it := s.OutCursor(1); ; {
			w, ok := it.Next()
			if !ok {
				break
			}
			sink = w
		}
		s.ForEachOut(1, func(w VertexID) bool {
			sink = w
			return true
		})
	})
	if allocs != 0 {
		t.Fatalf("cursor iteration allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// TestMemoryBytesTracksGrowth sanity-checks the O(1) footprint estimate:
// it must be positive, grow with edges, and shrink after deleting and
// compacting most of the graph.
func TestMemoryBytesTracksGrowth(t *testing.T) {
	s := NewStore()
	if s.MemoryBytes() != 0 {
		t.Fatalf("empty store reports %d bytes", s.MemoryBytes())
	}
	for i := 0; i < 1000; i++ {
		s.AddEdge(VertexID(i%50), VertexID(i), Out)
	}
	grown := s.MemoryBytes()
	if grown == 0 {
		t.Fatal("populated store reports 0 bytes")
	}
	if s.BytesPerEdge() <= 0 {
		t.Fatal("BytesPerEdge not positive")
	}
	for i := 0; i < 1000; i++ {
		s.RemoveEdge(VertexID(i%50), VertexID(i), Out)
	}
	s.Compact()
	if shrunk := s.MemoryBytes(); shrunk >= grown {
		t.Fatalf("footprint did not shrink after delete+compact: %d -> %d", grown, shrunk)
	}
}
