package route

import (
	"testing"

	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// viewWithOverrides is the view helper plus a placement override table.
func viewWithOverrides(t *testing.T, epoch uint64, ids []uint64, ovs map[graph.VertexID]uint64) *wire.View {
	t.Helper()
	c := cfg()
	v := view(t, epoch, ids, degSketch(c.NewSketch(), 64, 1))
	for vid, aid := range ovs {
		v.Overrides = append(v.Overrides, wire.VertexOverride{Vertex: vid, AgentID: aid})
	}
	return v
}

// TestOverrideRoutingMatchesBruteForce is the override-table property
// test: for every vertex, the cached router under (ring + sketch +
// overrides) must equal the brute-force composition of a reference
// router without overrides and the override rule — an override wins only
// for unsplit vertices whose target is a live member; everything else
// is untouched ring placement. Checked across epoch changes and plan
// churn (overrides added, retargeted, dropped, and dangling).
func TestOverrideRoutingMatchesBruteForce(t *testing.T) {
	c := cfg()
	vertices := make([]graph.VertexID, 0, 64)
	for v := graph.VertexID(0); v < 64; v++ {
		vertices = append(vertices, v)
	}
	// Epoch schedule: members change under the table, targets churn, one
	// override dangles at a non-member, one names a split vertex.
	steps := []struct {
		epoch uint64
		ids   []uint64
		ovs   map[graph.VertexID]uint64
	}{
		{1, []uint64{1, 2, 3, 4}, nil},
		{2, []uint64{1, 2, 3, 4}, map[graph.VertexID]uint64{3: 2, 5: 4, 7: 1, 60: 2}}, // 60 is split (degree 60 > threshold 10)
		{3, []uint64{1, 2, 3, 4}, map[graph.VertexID]uint64{3: 4, 5: 4, 9: 99}},       // retarget, drop, dangling target 99
		{4, []uint64{1, 3, 4}, map[graph.VertexID]uint64{3: 2, 5: 3}},                 // member 2 left; override at 2 now dangles
		{5, []uint64{1, 3, 4, 5}, nil},                                                // plan cleared
	}
	r := New(c)
	for _, st := range steps {
		if _, err := r.Update(viewWithOverrides(t, st.epoch, st.ids, st.ovs)); err != nil {
			t.Fatal(err)
		}
		// Reference router: same view, overrides stripped.
		ref := New(c)
		if _, err := ref.Update(viewWithOverrides(t, st.epoch, st.ids, nil)); err != nil {
			t.Fatal(err)
		}
		live := make(map[uint64]bool, len(st.ids))
		for _, id := range st.ids {
			live[id] = true
		}
		tag := map[uint64]string{1: "e1", 2: "e2", 3: "e3", 4: "e4", 5: "e5"}[st.epoch]
		// Cached answers must equal the uncached compute path...
		assertCachedMatchesUncached(t, r, vertices, tag+"/cold")
		assertCachedMatchesUncached(t, r, vertices, tag+"/warm")
		// ...and the compute path must equal the brute-force rule.
		for _, v := range vertices {
			k := ref.Replicas(v)
			ov, hasOv := st.ovs[v]
			wantOverride := hasOv && k <= 1 && live[ov]
			got, ok := r.Master(v)
			if !ok {
				t.Fatalf("%s: Master(%d) lost the ring", tag, v)
			}
			if wantOverride {
				if got != consistent.AgentID(ov) {
					t.Fatalf("%s: Master(%d) = %d, want override target %d", tag, v, got, ov)
				}
				if set := r.ReplicaSet(v); len(set) != 1 || set[0] != consistent.AgentID(ov) {
					t.Fatalf("%s: ReplicaSet(%d) = %v, want [%d]", tag, v, set, ov)
				}
				// Every edge of an overridden vertex routes at the target.
				for _, other := range []graph.VertexID{v + 1, v * 3, 500} {
					if owner, ok := r.EdgeOwner(v, other); !ok || owner != consistent.AgentID(ov) {
						t.Fatalf("%s: EdgeOwner(%d,%d) = %d,%v, want %d", tag, v, other, owner, ok, ov)
					}
				}
			} else {
				want, _ := ref.Master(v)
				if got != want {
					t.Fatalf("%s: Master(%d) = %d, want ring placement %d (override=%v k=%d)",
						tag, v, got, want, hasOv, k)
				}
			}
		}
	}
	// The schedule must have exercised a real override at least once —
	// guard against the sketch shifting under the constants above.
	r2 := New(c)
	if _, err := r2.Update(viewWithOverrides(t, 9, []uint64{1, 2, 3, 4}, map[graph.VertexID]uint64{3: 2})); err != nil {
		t.Fatal(err)
	}
	if m, _ := r2.Master(3); m != 2 {
		t.Fatalf("override on unsplit vertex 3 did not apply: master=%d", m)
	}
	if r2.NumOverrides() != 1 {
		t.Fatalf("NumOverrides = %d, want 1", r2.NumOverrides())
	}
	if ov, ok := r2.Override(3); !ok || ov != 2 {
		t.Fatalf("Override(3) = %d,%v, want 2,true", ov, ok)
	}
}

// TestOverrideIgnoredForSplitVertices pins the split guard directly: a
// vertex over the replication threshold keeps its ring-derived replica
// window even when the table names it.
func TestOverrideIgnoredForSplitVertices(t *testing.T) {
	c := cfg()
	r := New(c)
	// Vertex 60 has degree 60 under degSketch: well over threshold 10.
	if _, err := r.Update(viewWithOverrides(t, 1, []uint64{1, 2, 3, 4}, map[graph.VertexID]uint64{60: 2})); err != nil {
		t.Fatal(err)
	}
	if !r.Split(60) {
		t.Fatal("vertex 60 should be split under the test sketch")
	}
	ref := New(c)
	if _, err := ref.Update(viewWithOverrides(t, 1, []uint64{1, 2, 3, 4}, nil)); err != nil {
		t.Fatal(err)
	}
	set, want := r.ReplicaSet(60), ref.ReplicaSet(60)
	if len(set) != len(want) {
		t.Fatalf("split replica set resized by override: %v vs %v", set, want)
	}
	for i := range set {
		if set[i] != want[i] {
			t.Fatalf("split replica set changed by override: %v vs %v", set, want)
		}
	}
}

// TestOverrideStaleViewIgnored pins that a stale view cannot roll the
// override table back: Update with an older epoch is a no-op.
func TestOverrideStaleViewIgnored(t *testing.T) {
	c := cfg()
	r := New(c)
	if _, err := r.Update(viewWithOverrides(t, 5, []uint64{1, 2, 3, 4}, map[graph.VertexID]uint64{3: 2})); err != nil {
		t.Fatal(err)
	}
	changed, err := r.Update(viewWithOverrides(t, 4, []uint64{1, 2, 3, 4}, nil))
	if err != nil || changed {
		t.Fatalf("stale view applied: changed=%v err=%v", changed, err)
	}
	if m, _ := r.Master(3); m != 2 {
		t.Fatalf("stale view rolled back the override table: master=%d", m)
	}
}

// TestOverrideChangeIsNotSketchOnly: the keep-the-cache path is only for
// views whose override table is the installed one; a retargeted, added or
// dropped override must take the wholesale path and take effect.
func TestOverrideChangeIsNotSketchOnly(t *testing.T) {
	ids := []uint64{1, 2, 3, 4}
	r := New(cfg())
	if _, err := r.Update(viewWithOverrides(t, 1, ids, map[graph.VertexID]uint64{3: 2})); err != nil {
		t.Fatal(err)
	}
	if m, _ := r.Master(3); m != 2 {
		t.Fatalf("override not installed: master=%d", m)
	}
	if _, err := r.Update(viewWithOverrides(t, 2, ids, map[graph.VertexID]uint64{3: 2})); err != nil {
		t.Fatal(err)
	}
	if _, sketchOnly := r.Rerouted(); !sketchOnly {
		t.Fatal("the same override table was not treated as sketch-only")
	}
	for epoch, ovs := range []map[graph.VertexID]uint64{{3: 4}, {3: 4, 5: 1}, nil} {
		if _, err := r.Update(viewWithOverrides(t, uint64(3+epoch), ids, ovs)); err != nil {
			t.Fatal(err)
		}
		if _, sketchOnly := r.Rerouted(); sketchOnly {
			t.Fatalf("override table %v was treated as sketch-only", ovs)
		}
	}
	fresh := New(cfg())
	if _, err := fresh.Update(viewWithOverrides(t, 9, ids, nil)); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Master(3)
	want, _ := fresh.Master(3)
	if got != want {
		t.Fatalf("dropped override still routes: master=%d, ring says %d", got, want)
	}
}
