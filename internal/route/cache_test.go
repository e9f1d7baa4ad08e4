package route

import (
	"sync"
	"testing"

	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/sketch"
	"elga/internal/wire"
)

// refEdgeOwner resolves edge ownership straight from the sketch and ring,
// bypassing the route table — the uncached Figure 3 semantics the table
// must reproduce bit-identically.
func refEdgeOwner(r *Router, u, other graph.VertexID) (consistent.AgentID, bool) {
	rt := r.computeRoute(u)
	if len(rt.set) == 0 {
		return 0, false
	}
	if rt.k <= 1 {
		return rt.set[0], true
	}
	return r.ring.PickReplica(rt.set, uint64(other))
}

// assertCachedMatchesUncached compares every cached lookup against the
// uncached reference for the given vertices.
func assertCachedMatchesUncached(t *testing.T, r *Router, vertices []graph.VertexID, tag string) {
	t.Helper()
	for _, v := range vertices {
		ref := r.computeRoute(v)
		if got := r.Replicas(v); got != ref.k {
			t.Fatalf("%s: Replicas(%d) = %d, want %d", tag, v, got, ref.k)
		}
		if got := r.Split(v); got != (ref.k > 1) {
			t.Fatalf("%s: Split(%d) = %v, want %v", tag, v, got, ref.k > 1)
		}
		set := r.ReplicaSet(v)
		if len(set) != len(ref.set) {
			t.Fatalf("%s: ReplicaSet(%d) len = %d, want %d", tag, v, len(set), len(ref.set))
		}
		for i := range set {
			if set[i] != ref.set[i] {
				t.Fatalf("%s: ReplicaSet(%d)[%d] = %d, want %d", tag, v, i, set[i], ref.set[i])
			}
		}
		into := r.ReplicaSetInto(v, nil)
		for i := range into {
			if into[i] != ref.set[i] {
				t.Fatalf("%s: ReplicaSetInto(%d)[%d] = %d, want %d", tag, v, i, into[i], ref.set[i])
			}
		}
		m, ok := r.Master(v)
		if len(ref.set) == 0 {
			if ok {
				t.Fatalf("%s: Master(%d) ok on empty set", tag, v)
			}
		} else if !ok || m != ref.set[0] {
			t.Fatalf("%s: Master(%d) = %d,%v, want %d", tag, v, m, ok, ref.set[0])
		}
		for _, id := range r.Agents() {
			inRef := false
			for _, a := range ref.set {
				if a == id {
					inRef = true
					break
				}
			}
			if got := r.IsReplica(v, id); got != inRef {
				t.Fatalf("%s: IsReplica(%d, %d) = %v, want %v", tag, v, id, got, inRef)
			}
		}
		if r.IsReplica(v, 0xdead) {
			t.Fatalf("%s: IsReplica(%d, non-member) = true", tag, v)
		}
		for _, other := range []graph.VertexID{v + 1, v * 7, 12345} {
			want, wantOK := refEdgeOwner(r, v, other)
			got, gotOK := r.EdgeOwner(v, other)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: EdgeOwner(%d,%d) = %d,%v, want %d,%v", tag, v, other, got, gotOK, want, wantOK)
			}
			if i, ok := r.EdgeOwnerIndex(v, other); ok != wantOK || (ok && r.Agents()[i] != want) {
				t.Fatalf("%s: EdgeOwnerIndex(%d,%d) = %d,%v, want the index of %d,%v", tag, v, other, i, ok, want, wantOK)
			}
			// The two-step handle resolves v once and places each neighbour.
			i, replicas, ok := r.RouteIndex(v)
			if (replicas != nil) != (ref.k > 1 || len(ref.set) == 0) {
				t.Fatalf("%s: RouteIndex(%d) replicas = %v for k = %d", tag, v, replicas, ref.k)
			}
			if ok && replicas != nil {
				i = r.ReplicaFor(replicas, other)
			}
			if ok != wantOK || (ok && r.Agents()[i] != want) {
				t.Fatalf("%s: RouteIndex+ReplicaFor(%d,%d) = %d,%v, want the index of %d,%v", tag, v, other, i, ok, want, wantOK)
			}
		}
		for salt := uint64(0); salt < 5; salt++ {
			var want consistent.AgentID
			wantOK := len(ref.set) > 0
			if wantOK {
				if ref.k <= 1 {
					want = ref.set[0]
				} else {
					want = ref.set[salt%uint64(len(ref.set))]
				}
			}
			got, gotOK := r.AnyReplica(v, salt)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: AnyReplica(%d,%d) = %d,%v, want %d,%v", tag, v, salt, got, gotOK, want, wantOK)
			}
		}
	}
}

// degSketch builds a sketch where vertex v has degree v*scale, putting a
// band of vertices over the replication threshold.
func degSketch(c *sketch.Sketch, n, scale int) *sketch.Sketch {
	for v := 0; v < n; v++ {
		for i := 0; i < v*scale; i++ {
			c.Add(uint64(v))
		}
	}
	return c
}

func TestRouteCacheMatchesUncachedAcrossEpochs(t *testing.T) {
	c := cfg()
	r := New(c)
	vertices := make([]graph.VertexID, 0, 64)
	for v := graph.VertexID(0); v < 64; v++ {
		vertices = append(vertices, v)
	}

	// Epoch 1: four members, degrees 0..63 (threshold 10 → vertices split
	// with growing k, capped at MaxReplicas and the ring size).
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4}, degSketch(c.NewSketch(), 64, 1))); err != nil {
		t.Fatal(err)
	}
	assertCachedMatchesUncached(t, r, vertices, "epoch1/cold")
	// Second pass: every answer now serves from the warm cache.
	assertCachedMatchesUncached(t, r, vertices, "epoch1/warm")

	before := make(map[graph.VertexID]consistent.AgentID)
	for _, v := range vertices {
		if m, ok := r.Master(v); ok {
			before[v] = m
		}
	}

	// Epoch 2: member 2 leaves, member 5 joins, and every degree triples —
	// both the ring and the sketch change under the cached answers.
	if _, err := r.Update(view(t, 2, []uint64{1, 3, 4, 5}, degSketch(c.NewSketch(), 64, 3))); err != nil {
		t.Fatal(err)
	}
	assertCachedMatchesUncached(t, r, vertices, "epoch2/cold")
	assertCachedMatchesUncached(t, r, vertices, "epoch2/warm")

	// The epoch bump must actually change some answers — otherwise this
	// test could pass against a cache that never invalidates.
	changed := 0
	for _, v := range vertices {
		if m, ok := r.Master(v); ok && m != before[v] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no routing answer changed across the epoch bump; invalidation untested")
	}
}

// TestSketchOnlyUpdateKeepsUnchangedRoutes: a view that differs from the
// installed one only in its sketch keeps every cached entry whose replica
// count is unchanged (the very same object), drops and reports exactly the
// rest, and afterwards answers like a router that installed the view cold.
func TestSketchOnlyUpdateKeepsUnchangedRoutes(t *testing.T) {
	c := cfg()
	ids := []uint64{1, 2, 3, 4}
	vertices := make([]graph.VertexID, 0, 64)
	for v := graph.VertexID(0); v < 64; v++ {
		vertices = append(vertices, v)
	}
	r := New(c)
	if _, err := r.Update(view(t, 1, ids, degSketch(c.NewSketch(), 64, 1))); err != nil {
		t.Fatal(err)
	}
	if _, sketchOnly := r.Rerouted(); sketchOnly {
		t.Fatal("a membership install reported itself sketch-only")
	}
	entries := make(map[graph.VertexID]*vertexRoute)
	for _, v := range vertices {
		entries[v] = r.routeOf(v)
	}

	// Same members, one more increment for every vertex: only the vertices
	// sitting on a multiple of the threshold gain a replica.
	grown := degSketch(c.NewSketch(), 64, 1)
	for _, v := range vertices {
		grown.Add(uint64(v))
	}
	if changed, err := r.Update(view(t, 2, ids, grown)); err != nil || !changed {
		t.Fatalf("update: %v %v", changed, err)
	}
	rerouted, sketchOnly := r.Rerouted()
	if !sketchOnly {
		t.Fatal("a view with the installed membership was not treated as sketch-only")
	}
	fresh := New(c)
	if _, err := fresh.Update(view(t, 2, ids, grown)); err != nil {
		t.Fatal(err)
	}
	moved := make(map[graph.VertexID]bool)
	for _, v := range rerouted {
		moved[v] = true
	}
	for _, v := range vertices {
		if want := fresh.Replicas(v) != entries[v].k; moved[v] != want {
			t.Errorf("vertex %d: rerouted=%v, replica count changed=%v", v, moved[v], want)
		}
		if !moved[v] && r.routeOf(v) != entries[v] {
			t.Errorf("vertex %d: unchanged route was evicted from the cache", v)
		}
	}
	if len(rerouted) == 0 || len(rerouted) == len(vertices) {
		t.Fatalf("%d of %d vertices rerouted; the test needs some of each", len(rerouted), len(vertices))
	}
	assertCachedMatchesUncached(t, r, vertices, "sketch-only")
	for _, v := range vertices {
		a, _ := r.EdgeOwner(v, v+1)
		b, _ := fresh.EdgeOwner(v, v+1)
		if a != b {
			t.Errorf("EdgeOwner(%d) = %d after the sketch-only update, %d on a cold router", v, a, b)
		}
	}

	// An identical view under a higher epoch moves nothing at all.
	if _, err := r.Update(view(t, 3, ids, grown)); err != nil {
		t.Fatal(err)
	}
	if rerouted, sketchOnly := r.Rerouted(); !sketchOnly || len(rerouted) != 0 {
		t.Fatalf("identical view: rerouted=%v sketchOnly=%v", rerouted, sketchOnly)
	}
	// A membership change goes back to the wholesale path.
	if _, err := r.Update(view(t, 4, []uint64{1, 2, 3}, grown)); err != nil {
		t.Fatal(err)
	}
	if _, sketchOnly := r.Rerouted(); sketchOnly {
		t.Fatal("a membership change was treated as sketch-only")
	}
	assertCachedMatchesUncached(t, r, vertices, "after-leave")
}

func TestRouteCacheConcurrentLookups(t *testing.T) {
	// Lookups issued concurrently: hits read the table without a lock while
	// misses fill and grow it. Overlapping key ranges make several
	// goroutines miss on the same vertex, and enough
	// keys force the table through several growths mid-flight; every
	// answer, whichever table it was read from, must equal the reference.
	const keys = 8 * minSlots
	c := cfg()
	r := New(c)
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4}, degSketch(c.NewSketch(), 256, 1))); err != nil {
		t.Fatal(err)
	}
	if got := len(r.tab.Load().slots); got != minSlots {
		t.Fatalf("fresh table has %d slots, want %d", got, minSlots)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed graph.VertexID) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for v := graph.VertexID(0); v < keys; v++ {
					u := (v + seed) % keys
					ref := r.computeRoute(u)
					if got := r.Replicas(u); got != ref.k {
						t.Errorf("Replicas(%d) = %d, want %d", u, got, ref.k)
					}
					want, _ := refEdgeOwner(r, u, v)
					if got, ok := r.EdgeOwner(u, v); !ok || got != want {
						t.Errorf("EdgeOwner(%d,%d) = %d,%v, want %d", u, v, got, ok, want)
					}
					if got, ok := r.Master(u); !ok || got != ref.set[0] {
						t.Errorf("Master(%d) = %d,%v, want %d", u, got, ok, ref.set[0])
					}
					if !r.IsReplica(u, ref.set[len(ref.set)-1]) {
						t.Errorf("IsReplica(%d, %d) = false", u, ref.set[len(ref.set)-1])
					}
				}
			}
		}(graph.VertexID(w * 31))
	}
	wg.Wait()
	if got := len(r.tab.Load().slots); got < minSlots<<3 {
		t.Fatalf("table ended at %d slots: fewer than three growths from %d", got, minSlots)
	}
	if r.count != keys {
		t.Fatalf("table holds %d vertices after looking up %d", r.count, keys)
	}
	assertCachedMatchesUncached(t, r, []graph.VertexID{0, 17, 99, 200, keys - 1}, "concurrent")
}

// TestRouteLookupsDoNotAllocateWarm: every hit-path method answers a
// vertex the table holds — unsplit (inline owner) or split (side entry) —
// without allocating.
func TestRouteLookupsDoNotAllocateWarm(t *testing.T) {
	c := cfg()
	r := New(c)
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4}, degSketch(c.NewSketch(), 64, 1))); err != nil {
		t.Fatal(err)
	}
	// Fill the table.
	split := 0
	for v := graph.VertexID(0); v < 64; v++ {
		if r.Split(v) {
			split++
		}
	}
	if split == 0 || split == 64 {
		t.Fatalf("%d of 64 vertices split; the test needs both kinds", split)
	}
	buf := make([]consistent.AgentID, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for v := graph.VertexID(0); v < 64; v++ {
			r.Replicas(v)
			r.Split(v)
			r.EdgeOwner(v, v+1)
			r.EdgeOwnerIndex(v, v+1)
			r.CopyOwner(wire.EdgeChange{Src: v, Dst: v + 1, Dir: graph.In})
			r.Master(v)
			r.AnyReplica(v, uint64(v))
			r.IsReplica(v, 2)
			r.ReplicaSet(v)
			buf = r.ReplicaSetInto(v, buf)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm lookups allocate: %v allocs/run", allocs)
	}
}
