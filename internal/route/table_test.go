package route

import (
	"math/rand"
	"sort"
	"testing"

	"elga/internal/graph"
	"elga/internal/wire"
)

// TestRouteTableDifferentialViewSequence drives one router through a
// random sequence of views — join, leave, a member replaced in one view,
// sketch-only updates that do and do not move a replica count, an
// unchanged view, a stale epoch — with lookups in between. After every
// view each lookup method must answer like the uncached reference, and
// after every sketch-only one Rerouted must be exactly the vertices looked
// up since the last wholesale install whose replica count changed. The
// vertex population is 10x the table's starting capacity, so the equality
// fails for a table that evicts or loses an entry while growing.
func TestRouteTableDifferentialViewSequence(t *testing.T) {
	const population = 10 * minSlots
	c := cfg()
	rng := rand.New(rand.NewSource(7))
	sk := c.NewSketch()
	for v := 0; v < population; v++ {
		// Degrees 0..24 put vertices on both sides of the 10 and 20
		// replica thresholds, many of them one increment away.
		for i := 0; i < v%25; i++ {
			sk.Add(uint64(v))
		}
	}
	ids := []uint64{1, 2, 3, 4}
	nextID := uint64(5)
	epoch := uint64(0)
	build := func() *wire.View { return view(t, epoch, ids, sk) }

	r := New(c)
	// seen is every vertex looked up since the last wholesale install.
	seen := map[graph.VertexID]bool{}
	// lookUp resolves n vertices — each one once, in order, when n is the
	// whole population, else at random — and then checks that the table
	// holds exactly the vertices in seen: none evicted, none lost to a
	// growth, none twice.
	lookUp := func(n int, tag string) {
		t.Helper()
		vs := make([]graph.VertexID, 0, n)
		for i := 0; i < n; i++ {
			v := graph.VertexID(i)
			if n != population {
				v = graph.VertexID(rng.Intn(population))
			}
			vs = append(vs, v)
			seen[v] = true
		}
		assertCachedMatchesUncached(t, r, vs, tag)
		for v := range seen {
			if _, val := r.tab.Load().probe(v); val == 0 {
				t.Fatalf("%s: vertex %d was looked up but is not in the table", tag, v)
			}
		}
		if r.count != len(seen) {
			t.Fatalf("%s: table holds %d vertices, %d were looked up", tag, r.count, len(seen))
		}
	}
	epoch++
	if _, err := r.Update(build()); err != nil {
		t.Fatal(err)
	}
	// 10x the starting capacity, so Rerouted is checked against a table
	// that has grown several times.
	lookUp(population, "install")
	var moved, quiet, wholesale int
	for step := 0; step < 120; step++ {
		kOld := make(map[graph.VertexID]int, len(seen))
		for v := range seen {
			kOld[v] = r.computeRoute(v).k
		}
		op := rng.Intn(7)
		epoch++
		switch op {
		case 0: // join
			ids = append(ids, nextID)
			nextID++
		case 1: // leave
			if len(ids) > 2 {
				i := rng.Intn(len(ids))
				ids = append(ids[:i:i], ids[i+1:]...)
			}
		case 2: // one member leaves and another joins: same size, new membership
			ids = append(ids[1:len(ids):len(ids)], nextID)
			nextID++
		case 3: // sketch-only: one vertex's degree jumps past the next threshold
			v := uint64(rng.Intn(population))
			for i := 0; i < 12; i++ {
				sk.Add(v)
			}
		case 4: // sketch grows under the installed membership
			for i := 0; i < 1+rng.Intn(12); i++ {
				sk.Add(uint64(rng.Intn(population)))
			}
		case 5: // the same view under a higher epoch
		case 6: // stale epoch naming a different membership: ignored
			epoch--
			stale := view(t, epoch-1, []uint64{99}, nil)
			if changed, err := r.Update(stale); err != nil || changed {
				t.Fatalf("step %d: stale view applied: %v %v", step, changed, err)
			}
			lookUp(40, "stale")
			continue
		}
		if changed, err := r.Update(build()); err != nil || !changed {
			t.Fatalf("step %d op %d: update: %v %v", step, op, changed, err)
		}
		rerouted, sketchOnly := r.Rerouted()
		if !sketchOnly {
			wholesale++
			clear(seen)
			n := 60
			if wholesale%3 == 0 {
				n = population
			}
			lookUp(n, "wholesale")
			continue
		}
		var want []graph.VertexID
		for v := range seen {
			if r.computeRoute(v).k != kOld[v] {
				want = append(want, v)
			}
		}
		got := append([]graph.VertexID(nil), rerouted...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("step %d op %d: Rerouted = %v, want %v (%d vertices looked up)", step, op, got, want, len(seen))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d op %d: Rerouted = %v, want %v", step, op, got, want)
			}
		}
		if len(want) > 0 {
			moved++
		} else {
			quiet++
		}
		// Everything looked up so far answers from the kept entries, and
		// the rerouted vertices are looked up (refilled) again.
		all := make([]graph.VertexID, 0, len(seen))
		for v := range seen {
			all = append(all, v)
		}
		assertCachedMatchesUncached(t, r, all, "sketch-only")
		lookUp(40, "after-sketch-only")
	}
	if moved == 0 || quiet == 0 || wholesale < 3 {
		t.Fatalf("sequence covered %d rerouting, %d quiet and %d wholesale updates; need some of each", moved, quiet, wholesale)
	}
}
