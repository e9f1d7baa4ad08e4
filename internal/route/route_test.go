package route

import (
	"testing"

	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/sketch"
	"elga/internal/wire"
)

func cfg() config.Config {
	c := config.Default()
	c.SketchWidth = 256
	c.SketchDepth = 4
	c.Virtual = 8
	c.ReplicationThreshold = 10
	c.MaxReplicas = 4
	return c
}

func view(t *testing.T, epoch uint64, ids []uint64, sk *sketch.Sketch) *wire.View {
	t.Helper()
	v := &wire.View{Epoch: epoch, BatchID: epoch, N: 100}
	for _, id := range ids {
		v.Agents = append(v.Agents, wire.AgentInfo{ID: id, Addr: "addr-" + string(rune('a'+id))})
	}
	if sk != nil {
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		v.Sketch = data
	}
	return v
}

func TestEmptyRouter(t *testing.T) {
	r := New(cfg())
	if r.NumAgents() != 0 || r.Epoch() != 0 {
		t.Fatal("fresh router not empty")
	}
	if _, ok := r.EdgeOwner(1, 2); ok {
		t.Error("EdgeOwner on empty router")
	}
	if _, ok := r.Master(1); ok {
		t.Error("Master on empty router")
	}
}

func TestUpdateInstallsView(t *testing.T) {
	r := New(cfg())
	changed, err := r.Update(view(t, 3, []uint64{1, 2, 3}, nil))
	if err != nil || !changed {
		t.Fatalf("update: %v %v", changed, err)
	}
	if r.Epoch() != 3 || r.NumAgents() != 3 || r.N() != 100 || r.BatchID() != 3 {
		t.Fatalf("router state: epoch=%d agents=%d", r.Epoch(), r.NumAgents())
	}
	addr, ok := r.AddrOf(2)
	if !ok || addr == "" {
		t.Error("AddrOf failed")
	}
	if !r.IsMember(1) || r.IsMember(99) {
		t.Error("IsMember wrong")
	}
}

func TestStaleViewIgnored(t *testing.T) {
	r := New(cfg())
	if _, err := r.Update(view(t, 5, []uint64{1, 2}, nil)); err != nil {
		t.Fatal(err)
	}
	changed, err := r.Update(view(t, 4, []uint64{9}, nil))
	if err != nil || changed {
		t.Fatal("stale view applied")
	}
	if r.NumAgents() != 2 {
		t.Fatal("membership changed by stale view")
	}
}

func TestBadSketchRejected(t *testing.T) {
	r := New(cfg())
	v := view(t, 1, []uint64{1}, nil)
	v.Sketch = []byte{1, 2, 3}
	if _, err := r.Update(v); err == nil {
		t.Error("corrupt sketch accepted")
	}
}

func TestReplicasFollowSketch(t *testing.T) {
	c := cfg()
	r := New(c)
	sk := c.NewSketch()
	// Vertex 7 has degree 35 -> ceil(35/10) = 4 replicas (cap 4).
	sk.AddN(7, 35)
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4, 5, 6}, sk)); err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas(7); got != 4 {
		t.Errorf("Replicas(7) = %d, want 4", got)
	}
	if !r.Split(7) {
		t.Error("vertex 7 should be split")
	}
	if r.Split(8) {
		t.Error("low-degree vertex should not split")
	}
	set := r.ReplicaSet(7)
	if len(set) != 4 {
		t.Fatalf("ReplicaSet size %d", len(set))
	}
	m, ok := r.Master(7)
	if !ok || m != set[0] {
		t.Error("Master should be ReplicaSet[0]")
	}
	if r.DegreeEstimate(7) < 35 {
		t.Error("degree estimate underestimates")
	}
}

func TestReplicasCappedByRingSize(t *testing.T) {
	c := cfg()
	r := New(c)
	sk := c.NewSketch()
	sk.AddN(7, 1000)
	if _, err := r.Update(view(t, 1, []uint64{1, 2}, sk)); err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas(7); got != 2 {
		t.Errorf("Replicas capped at ring size: got %d", got)
	}
}

func TestCopyOwnerKeysByDirection(t *testing.T) {
	r := New(cfg())
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4}, nil)); err != nil {
		t.Fatal(err)
	}
	outOwner, _ := r.CopyOwner(wire.EdgeChange{Src: 10, Dst: 20, Dir: graph.Out})
	wantOut, _ := r.EdgeOwner(10, 20)
	if outOwner != wantOut {
		t.Error("Out copy should key on Src")
	}
	inOwner, _ := r.CopyOwner(wire.EdgeChange{Src: 10, Dst: 20, Dir: graph.In})
	wantIn, _ := r.EdgeOwner(20, 10)
	if inOwner != wantIn {
		t.Error("In copy should key on Dst")
	}
}

func TestAnyReplicaIsMemberOfSet(t *testing.T) {
	c := cfg()
	r := New(c)
	sk := c.NewSketch()
	sk.AddN(5, 25)
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4, 5}, sk)); err != nil {
		t.Fatal(err)
	}
	set := map[consistent.AgentID]bool{}
	for _, a := range r.ReplicaSet(5) {
		set[a] = true
	}
	for salt := uint64(0); salt < 20; salt++ {
		a, ok := r.AnyReplica(5, salt)
		if !ok || !set[a] {
			t.Fatalf("AnyReplica returned non-replica %d", a)
		}
	}
}

func TestConfigAccessor(t *testing.T) {
	c := cfg()
	r := New(c)
	if r.Config().Virtual != c.Virtual {
		t.Error("Config accessor wrong")
	}
}

// rmat14Sketch is the sketch the directory holds once the R-MAT scale-14
// graph of the benchmark (131 072 edges, seed 1) is loaded under the
// default configuration, and the graph's vertices.
func rmat14Sketch(t *testing.T, c config.Config) (*sketch.Sketch, []graph.VertexID) {
	t.Helper()
	el := gen.RMAT(14, 131072, gen.Graph500Params(), 1).Dedupe()
	sk := c.NewSketch()
	seen := make(map[graph.VertexID]bool)
	var vs []graph.VertexID
	for _, e := range el {
		sk.Add(uint64(e.Src))
		sk.Add(uint64(e.Dst))
		for _, v := range []graph.VertexID{e.Src, e.Dst} {
			if !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
	}
	return sk, vs
}

// TestSplitCountFollowsMembership: under the default, load-derived
// threshold a vertex splits once it outgrows an eighth of a mean agent's
// load. On the benchmark's R-MAT-14 graph no hub does at four agents; at
// sixteen the fifteen top hubs do (degrees 1 248 to 3 008, the next is 519);
// and at sixty-four, where the threshold reaches its floor of 256, the 106
// hubs split that the old fixed threshold split.
func TestSplitCountFollowsMembership(t *testing.T) {
	c := config.Default()
	sk, vs := rmat14Sketch(t, c)
	for _, tc := range []struct {
		members  uint64
		min, max int
	}{{4, 0, 0}, {16, 10, 16}, {64, 80, len(vs)}} {
		ids := make([]uint64, tc.members)
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		r := New(c)
		if _, err := r.Update(view(t, 1, ids, sk)); err != nil {
			t.Fatal(err)
		}
		split := 0
		for _, v := range vs {
			if r.Split(v) {
				split++
			}
		}
		t.Logf("P = %d: threshold %d, %d split vertices", tc.members, c.Threshold(sk.Count(), int(tc.members)), split)
		if split < tc.min || split > tc.max {
			t.Errorf("P = %d: %d split vertices, want %d..%d", tc.members, split, tc.min, tc.max)
		}
	}
}

// TestThresholdMoveReroutesExactly: a sketch-only view whose total doubles
// moves the load-derived threshold. Every vertex whose replica count that
// changes — hubs that un-split or lose replicas — is rerouted, no other is,
// and the router then answers like one that installed the view cold.
func TestThresholdMoveReroutesExactly(t *testing.T) {
	c := config.Default()
	c.SketchWidth, c.SketchDepth, c.Virtual = 1024, 4, 8
	ids := []uint64{1, 2, 3, 4}
	hubs := map[graph.VertexID]uint32{1: 300, 2: 600, 3: 1000, 4: 2000}
	build := func(background uint32) *sketch.Sketch {
		sk := c.NewSketch()
		for v, d := range hubs {
			sk.AddN(uint64(v), d)
		}
		for v := uint64(100); v < 300; v++ {
			sk.AddN(v, background)
		}
		return sk
	}
	small, large := build(40), build(80) // totals ~12 k and ~20 k
	if c.Threshold(small.Count(), 4) != 256 || c.Threshold(large.Count(), 4) != 512 {
		t.Fatalf("test input: thresholds %d and %d, want 256 and 512",
			c.Threshold(small.Count(), 4), c.Threshold(large.Count(), 4))
	}
	vertices := make([]graph.VertexID, 0, 300)
	for v := graph.VertexID(0); v < 300; v++ {
		vertices = append(vertices, v)
	}
	r := New(c)
	if _, err := r.Update(view(t, 1, ids, small)); err != nil {
		t.Fatal(err)
	}
	before := make(map[graph.VertexID]int, len(vertices))
	for _, v := range vertices {
		before[v] = r.Replicas(v)
	}
	if _, err := r.Update(view(t, 2, ids, large)); err != nil {
		t.Fatal(err)
	}
	rerouted, sketchOnly := r.Rerouted()
	if !sketchOnly {
		t.Fatal("a view with the installed membership was not treated as sketch-only")
	}
	moved := make(map[graph.VertexID]bool)
	for _, v := range rerouted {
		moved[v] = true
	}
	fresh := New(c)
	if _, err := fresh.Update(view(t, 2, ids, large)); err != nil {
		t.Fatal(err)
	}
	for _, v := range vertices {
		if want := fresh.Replicas(v) != before[v]; moved[v] != want {
			t.Errorf("vertex %d: rerouted=%v, replica count %d -> %d", v, moved[v], before[v], fresh.Replicas(v))
		}
		a, _ := r.EdgeOwner(v, v+1)
		b, _ := fresh.EdgeOwner(v, v+1)
		if a != b {
			t.Errorf("EdgeOwner(%d) = %d after the update, %d on a cold router", v, a, b)
		}
	}
	if !moved[1] || moved[4] {
		t.Fatalf("rerouted %v: want the 300-degree hub (un-split) and not the capped 2000-degree one", rerouted)
	}
}

// TestReplicasBoundIsExact: the router answers one replica without reading
// the sketch while the sketch's bound is under the threshold in force, and
// otherwise reads it; either way every vertex of the R-MAT-14 graph gets
// exactly sketch.Replicas of its estimate, capped by the ring size. Fixed
// thresholds sit just under, at and just over the bound, just under the
// largest estimate (which collisions keep under the bound: only the top hub
// splits) and at 0 (never split); the load-derived one at 4, 16 and 64
// members splits none, some and many hubs.
func TestReplicasBoundIsExact(t *testing.T) {
	base := config.Default()
	sk, vs := rmat14Sketch(t, base)
	bound, top := sk.Bound(), uint64(0)
	for _, v := range vs {
		top = max(top, sk.Estimate(uint64(v)))
	}
	for _, tc := range []struct {
		threshold uint64
		members   int
	}{
		{bound - 1, 4}, {bound, 4}, {bound + 1, 4}, {top - 1, 4}, {0, 4},
		{config.SplitByLoad, 4}, {config.SplitByLoad, 16}, {config.SplitByLoad, 64},
	} {
		c := base
		c.ReplicationThreshold = tc.threshold
		ids := make([]uint64, tc.members)
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		r := New(c)
		if _, err := r.Update(view(t, 1, ids, sk)); err != nil {
			t.Fatal(err)
		}
		limit := c.Threshold(sk.Count(), tc.members)
		if want := limit > 0 && bound >= limit; r.CanSplit() != want {
			t.Fatalf("threshold %d, P = %d: CanSplit = %v with bound %d", limit, tc.members, r.CanSplit(), bound)
		}
		split := 0
		for _, v := range vs {
			want := min(sketch.Replicas(sk.Estimate(uint64(v)), limit, c.MaxReplicas), tc.members)
			if got := r.Replicas(v); got != want {
				t.Fatalf("threshold %d, P = %d: Replicas(%d) = %d, want %d (estimate %d)",
					limit, tc.members, v, got, want, sk.Estimate(uint64(v)))
			}
			if want > 1 {
				split++
			}
		}
		if split > 0 && !r.CanSplit() {
			t.Fatalf("threshold %d, P = %d: %d vertices split but CanSplit is false", limit, tc.members, split)
		}
		t.Logf("threshold %d, P = %d: bound %d, %d split", limit, tc.members, bound, split)
	}
}
