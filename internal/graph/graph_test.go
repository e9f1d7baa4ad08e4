package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEmptyStore(t *testing.T) {
	s := NewStore()
	if s.NumVertices() != 0 || s.NumEdgeCopies() != 0 || s.ActiveCount() != 0 {
		t.Fatal("fresh store not empty")
	}
	if s.HasVertex(1) {
		t.Error("HasVertex on empty store")
	}
	if nbrsOf(s, 1, Out) != nil || nbrsOf(s, 1, In) != nil {
		t.Error("neighbors of absent vertex not nil")
	}
}

func TestAddEdgeBothDirections(t *testing.T) {
	s := NewStore()
	if !s.AddEdge(1, 2, Out) {
		t.Fatal("AddEdge Out returned false")
	}
	if !s.AddEdge(1, 2, In) {
		t.Fatal("AddEdge In returned false")
	}
	if s.NumOutEdges() != 1 || s.NumEdgeCopies() != 2 {
		t.Fatalf("counts out=%d all=%d", s.NumOutEdges(), s.NumEdgeCopies())
	}
	if got := nbrsOf(s, 1, Out); len(got) != 1 || got[0] != 2 {
		t.Errorf("out-neighbours of 1 = %v", got)
	}
	if got := nbrsOf(s, 2, In); len(got) != 1 || got[0] != 1 {
		t.Errorf("in-neighbours of 2 = %v", got)
	}
	// Out copy lives under src; in copy under dst.
	if _, in := s.Degree(1); in != 0 {
		t.Error("copies stored under wrong endpoint")
	}
	if out, _ := s.Degree(2); out != 0 {
		t.Error("copies stored under wrong endpoint")
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	s := NewStore()
	s.AddEdge(1, 2, Out)
	if s.AddEdge(1, 2, Out) {
		t.Error("duplicate AddEdge returned true")
	}
	if s.NumOutEdges() != 1 {
		t.Errorf("NumOutEdges = %d", s.NumOutEdges())
	}
}

func TestRemoveEdge(t *testing.T) {
	s := NewStore()
	s.AddEdge(1, 2, Out)
	s.AddEdge(1, 3, Out)
	if !s.RemoveEdge(1, 2, Out) {
		t.Fatal("RemoveEdge returned false for present edge")
	}
	if s.RemoveEdge(1, 2, Out) {
		t.Error("RemoveEdge returned true for absent edge")
	}
	if s.RemoveEdge(9, 9, In) {
		t.Error("RemoveEdge on absent vertex returned true")
	}
	if got := nbrsOf(s, 1, Out); len(got) != 1 || got[0] != 3 {
		t.Errorf("out-neighbours after remove = %v", got)
	}
}

func TestVertexDroppedWhenEmpty(t *testing.T) {
	s := NewStore()
	s.AddEdge(1, 2, Out)
	s.RemoveEdge(1, 2, Out)
	if s.HasVertex(1) {
		t.Error("vertex 1 survived with no copies")
	}
	if s.NumVertices() != 0 {
		t.Errorf("NumVertices = %d", s.NumVertices())
	}
}

func TestPinKeepsVertexAlive(t *testing.T) {
	s := NewStore()
	s.Pin(5)
	if !s.HasVertex(5) {
		t.Fatal("pinned vertex absent")
	}
	s.AddEdge(5, 6, Out)
	s.RemoveEdge(5, 6, Out)
	if !s.HasVertex(5) {
		t.Error("pinned vertex dropped after last edge removed")
	}
	s.Unpin(5)
	if s.HasVertex(5) {
		t.Error("vertex survived unpin with no edges")
	}
}

func TestApplyMarksActive(t *testing.T) {
	s := NewStore()
	if !s.Apply(Change{Action: Insert, Src: 1, Dst: 2}, Out) {
		t.Fatal("Apply insert failed")
	}
	if s.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d", s.ActiveCount())
	}
	act := s.TakeActive()
	if len(act) != 1 || act[0] != 1 {
		t.Fatalf("TakeActive = %v (Out copy should activate the src)", act)
	}
	if s.ActiveCount() != 0 {
		t.Error("TakeActive did not clear")
	}
	s.Apply(Change{Action: Insert, Src: 3, Dst: 4}, In)
	act = s.TakeActive()
	if len(act) != 1 || act[0] != 4 {
		t.Fatalf("In copy should activate dst, got %v", act)
	}
	// No-op apply must not activate.
	s.Apply(Change{Action: Delete, Src: 8, Dst: 9}, Out)
	if s.ActiveCount() != 0 {
		t.Error("no-op change marked a vertex active")
	}
}

func TestTakeActiveSorted(t *testing.T) {
	s := NewStore()
	for _, v := range []VertexID{9, 3, 5} {
		s.MarkActive(v)
	}
	if act := s.TakeActive(); !slices.Equal(act, []VertexID{3, 5, 9}) {
		t.Fatalf("TakeActive = %v, want [3 5 9]", act)
	}
}

func TestClearActive(t *testing.T) {
	s := NewStore()
	s.MarkActive(7)
	s.ClearActive(7)
	if s.ActiveCount() != 0 {
		t.Error("ClearActive failed")
	}
}

func TestCopiesEnumeratesEverything(t *testing.T) {
	s := NewStore()
	s.AddEdge(1, 2, Out)
	s.AddEdge(3, 2, In)
	s.AddEdge(2, 4, Out)
	got := map[EdgeCopy]bool{}
	s.Copies(func(c EdgeCopy) bool {
		got[c] = true
		return true
	})
	want := []EdgeCopy{{1, 2, Out}, {3, 2, In}, {2, 4, Out}}
	if len(got) != len(want) {
		t.Fatalf("Copies found %d, want %d", len(got), len(want))
	}
	for _, c := range want {
		if !got[c] {
			t.Errorf("missing copy %+v", c)
		}
	}
	// Early termination.
	n := 0
	s.Copies(func(EdgeCopy) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop visited %d copies", n)
	}
}

func TestCopiesOfOneVertex(t *testing.T) {
	s := NewStore()
	s.AddEdge(2, 4, Out)
	s.AddEdge(2, 5, Out)
	s.AddEdge(3, 2, In)
	s.AddEdge(7, 8, Out)
	var got []EdgeCopy
	if !s.copiesOf(2, func(c EdgeCopy) bool { got = append(got, c); return true }) {
		t.Fatal("full walk reported an early stop")
	}
	want := []EdgeCopy{{2, 4, Out}, {2, 5, Out}, {3, 2, In}}
	if len(got) != len(want) {
		t.Fatalf("copiesOf(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("copiesOf(2) = %v, want %v", got, want)
		}
	}
	if s.copiesOf(2, func(EdgeCopy) bool { return false }) {
		t.Error("stopped walk reported completion")
	}
	if !s.copiesOf(99, func(EdgeCopy) bool { t.Error("copy under an absent vertex"); return true }) {
		t.Error("walk of an absent vertex reported an early stop")
	}
}

// TestTakeFlipsLogsPresenceChanges: every gain or loss of local presence
// is logged once, in-place edits of a present vertex are not, and replaying
// the log by parity reproduces the vertex set.
func TestTakeFlipsLogsPresenceChanges(t *testing.T) {
	s := NewStore()
	present := map[VertexID]bool{}
	replay := func() {
		t.Helper()
		flips, ok := s.TakeFlips()
		if !ok {
			t.Fatal("log abandoned on a small store")
		}
		for _, v := range flips {
			present[v] = !present[v]
		}
		for v, in := range present {
			if in != s.HasVertex(v) {
				t.Fatalf("after replay vertex %d present=%v, store says %v", v, in, s.HasVertex(v))
			}
		}
	}
	s.AddEdge(1, 2, Out)
	s.AddEdge(1, 3, Out) // vertex 1 already present: no flip
	s.AddEdge(1, 2, In)
	s.Pin(9)
	replay()
	if n := len(present); n != 3 {
		t.Fatalf("%d vertices logged, want 3 (1, 2, 9)", n)
	}
	s.RemoveEdge(1, 2, In) // vertex 2 vanishes
	s.AddEdge(5, 2, In)    // and comes back: two entries, net nothing
	s.Unpin(9)
	s.Compact()
	replay()
	if flips, ok := s.TakeFlips(); !ok || len(flips) != 0 {
		t.Fatalf("idle store logged %v (ok=%v)", flips, ok)
	}
}

// TestTakeFlipsGivesUpPastAWalk: a log that outgrows the vertex set is
// abandoned and says so, and the next log starts clean.
func TestTakeFlipsGivesUpPastAWalk(t *testing.T) {
	s := NewStore()
	for i := 0; i < flipSlack+8; i++ {
		s.AddEdge(1, 2, Out)
		s.RemoveEdge(1, 2, Out)
	}
	if flips, ok := s.TakeFlips(); ok || len(flips) != 0 {
		t.Fatalf("churn on an empty store: ok=%v with %d entries", ok, len(flips))
	}
	s.AddEdge(1, 2, Out)
	if flips, ok := s.TakeFlips(); !ok || len(flips) != 1 || flips[0] != 1 {
		t.Fatalf("log after giving up: %v ok=%v", flips, ok)
	}
}

func TestVertexListSorted(t *testing.T) {
	s := NewStore()
	for _, v := range []VertexID{9, 2, 5} {
		s.AddEdge(v, 100, Out)
	}
	vl := s.VertexList()
	if len(vl) != 3 { // 9,2,5; dst 100 is not stored under an Out copy
		t.Fatalf("VertexList = %v", vl)
	}
	for i := 1; i < len(vl); i++ {
		if vl[i-1] >= vl[i] {
			t.Fatal("VertexList not sorted")
		}
	}
}

func TestVerticesEarlyStop(t *testing.T) {
	s := NewStore()
	s.AddEdge(1, 2, Out)
	s.AddEdge(3, 4, Out)
	n := 0
	s.Vertices(func(VertexID) bool { n++; return false })
	if n != 1 {
		t.Errorf("Vertices early stop visited %d", n)
	}
}

// Property: after an arbitrary interleaving of inserts and deletes of a
// small edge universe, and of the vertex flags' calls (Pin, Unpin,
// DropVertex, MarkActive, ClearActive, TakeActive), counts equal the
// reference set sizes and the vertex set, the pins and the active set equal
// the MapStore reference's.
func TestStoreMatchesReferenceProperty(t *testing.T) {
	type op struct {
		U, V uint8
		Del  bool
		In   bool
		Call uint8
	}
	f := func(ops []op) bool {
		s, ms := NewStore(), NewMapStore()
		refOut := map[[2]VertexID]bool{}
		refIn := map[[2]VertexID]bool{}
		for _, o := range ops {
			u, v := VertexID(o.U%8), VertexID(o.V%8)
			key := [2]VertexID{u, v}
			dir := Out
			ref := refOut
			if o.In {
				dir = In
				ref = refIn
			}
			switch o.Call % 8 {
			case 0:
				s.Pin(u)
				ms.Pin(u)
			case 1:
				s.Unpin(u)
				ms.Unpin(u)
			case 2:
				for w := VertexID(0); w < 8; w++ {
					delete(refOut, [2]VertexID{u, w})
					delete(refIn, [2]VertexID{w, u})
				}
				co, ci := s.DropVertex(u)
				if mo, mi := ms.DropVertex(u); co != mo || ci != mi {
					return false
				}
			case 3:
				s.MarkActive(u)
				ms.MarkActive(u)
			case 4:
				s.ClearActive(u)
				ms.ClearActive(u)
			case 5:
				if !slices.Equal(s.TakeActive(), ms.TakeActive()) {
					return false
				}
			default:
				c := Change{Action: Insert, Src: u, Dst: v}
				if o.Del {
					c.Action = Delete
					delete(ref, key)
				} else {
					ref[key] = true
				}
				s.Apply(c, dir)
				ms.Apply(c, dir)
			}
		}
		for v := range ms.pinEmpty {
			if p := s.find(v); p < 0 || s.recs[p].meta&isPinned == 0 {
				return false
			}
		}
		return s.NumOutEdges() == len(refOut) && s.NumEdgeCopies()-s.NumOutEdges() == len(refIn) &&
			slices.Equal(s.VertexList(), ms.VertexList()) && slices.Equal(s.ActiveList(), ms.ActiveList())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddEdge(b *testing.B) {
	s := NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddEdge(VertexID(i%100000), VertexID(i), Out)
	}
}

func BenchmarkApplyInsertDeleteCycle(b *testing.B) {
	s := NewStore()
	for i := 0; i < b.N; i++ {
		c := Change{Action: Insert, Src: VertexID(i % 1024), Dst: VertexID(i % 4096)}
		s.Apply(c, Out)
		c.Action = Delete
		s.Apply(c, Out)
	}
}
