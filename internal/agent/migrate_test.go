package agent

import (
	"testing"

	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/route"
	"elga/internal/sketch"
	"elga/internal/wire"
)

// runCopies lists the copies of runs one by one, as inserts.
func runCopies(runs []wire.EdgeRun) []wire.EdgeChange {
	var out []wire.EdgeChange
	for _, r := range runs {
		for _, w := range r.Nbrs {
			c := wire.EdgeChange{Action: graph.Insert, Src: r.Key, Dst: w, Dir: r.Dir}
			if r.Dir == graph.In {
				c.Src, c.Dst = w, r.Key
			}
			out = append(out, c)
		}
	}
	return out
}

// copyOwner is the agent r names as the owner of copy c.
func copyOwner(r *route.Router, c wire.EdgeChange) consistent.AgentID {
	i, _ := r.CopyOwnerIndex(c)
	return r.Agents()[i]
}

// TestSketchOnlyViewMovesOnlyReroutedCopies drives handleView with a view
// that differs from the installed one only in its sketch, pushing one
// vertex across the replication threshold. The round must re-home exactly
// that vertex's copies — afterwards every one of them is held by the agent
// its router names — announce the now-split vertex to its master, and look
// at nothing else: a copy planted under an unaffected vertex, which a full
// scan would ship away, stays where it is.
func TestSketchOnlyViewMovesOnlyReroutedCopies(t *testing.T) {
	cfg := config.Default()
	cfg.SketchWidth, cfg.SketchDepth, cfg.Virtual = 1024, 4, 16
	cfg.ReplicationThreshold, cfg.MaxReplicas = 10, 4
	a, rec := newRecordedAgent(t, cfg, 0)
	peers := map[uint64]string{2: "peer-2", 3: "peer-3"}
	members := []wire.AgentInfo{{ID: 1, Addr: a.ep.Addr()}, {ID: 2, Addr: peers[2]}, {ID: 3, Addr: peers[3]}}
	viewWith := func(epoch uint64, sk *sketch.Sketch) *wire.View {
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return &wire.View{Epoch: epoch, BatchID: epoch, Agents: members, Sketch: data}
	}
	sk := cfg.NewSketch()
	a.handleView(viewWith(2, sk))
	self := consistent.AgentID(a.id)

	// A hub this agent owns outright while unsplit, 40 out-copies, plus a
	// crowd of small vertices it also owns.
	var hub graph.VertexID
	for v := graph.VertexID(1000); ; v++ {
		if m, _ := a.router.Master(v); m == self {
			hub = v
			break
		}
	}
	for w := graph.VertexID(0); w < 40; w++ {
		a.store.AddEdge(hub, w, graph.Out)
	}
	for u := graph.VertexID(0); u < 300; u++ {
		if o, _ := a.router.EdgeOwner(u, u+1); o == self {
			a.store.AddEdge(u, u+1, graph.Out)
		}
	}
	// The plant: a copy keyed on a vertex another agent owns. Nothing about
	// it changes below, so only a scan of every copy would find it.
	var stray graph.VertexID
	for v := graph.VertexID(2000); ; v++ {
		if m, _ := a.router.Master(v); m != self {
			stray = v
			break
		}
	}
	a.store.AddEdge(stray, 1, graph.Out)
	before := a.store.NumEdgeCopies()

	// Same members; the hub's count goes to 35 — four
	// replicas' worth, capped at the three members.
	sk.AddN(uint64(hub), 35)
	a.handleView(viewWith(3, sk))
	if rerouted, sketchOnly := a.router.Rerouted(); !sketchOnly || len(rerouted) != 1 || rerouted[0] != hub {
		t.Fatalf("router rerouted %v (sketchOnly=%v), want just the hub %d", rerouted, sketchOnly, hub)
	}
	if k := len(a.router.ReplicaSet(hub)); k != 3 {
		t.Fatalf("hub has %d replicas, want 3", k)
	}

	// Ack the shipments so the gate closes.
	rec.ackAll(a)
	if len(a.reqToGroups) > 0 {
		t.Fatalf("%d sends still wait for an ack", len(a.reqToGroups))
	}

	shipped := 0
	for id, addr := range peers {
		for _, c := range rec.log(addr).got {
			shipped++
			if c.Src != hub || c.Dir != graph.Out {
				t.Errorf("agent %d was shipped copy (%d,%d,%d), not one of the hub's", id, c.Src, c.Dst, c.Dir)
			}
			if o := copyOwner(a.router, c); o != consistent.AgentID(id) {
				t.Errorf("copy (%d,%d) shipped to agent %d, router names %d", c.Src, c.Dst, id, o)
			}
		}
	}
	if shipped == 0 || shipped >= 40 {
		t.Fatalf("%d of the hub's 40 copies moved; a three-way split moves some, not all", shipped)
	}
	if got := a.store.NumEdgeCopies(); got != before-shipped {
		t.Fatalf("agent holds %d copies after shipping %d of %d", got, shipped, before)
	}
	a.store.Copies(func(c graph.EdgeCopy) bool {
		o := copyOwner(a.router, wire.EdgeChange{Src: c.Src, Dst: c.Dst, Dir: c.Dir})
		if c.Src == stray {
			if o == self {
				t.Error("the planted copy is not misplaced; the test proves nothing")
			}
			return true
		}
		if o != self {
			t.Errorf("held copy (%d,%d,%d) belongs to agent %d", c.Src, c.Dst, c.Dir, o)
		}
		return true
	})
	if !a.store.HasVertex(stray) {
		t.Error("the round scanned every copy: the planted stray was shipped")
	}

	// The hub is now split and, if mastered elsewhere, was announced there.
	if m, _ := a.router.Master(hub); m != self {
		if regs := rec.log(peers[uint64(m)]).regs; len(regs) != 1 || regs[0] != hub {
			t.Errorf("master %d saw registrations %v, want the hub", m, regs)
		}
	}
}
