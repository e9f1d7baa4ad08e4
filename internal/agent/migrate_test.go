package agent

import (
	"sync"
	"testing"
	"time"

	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/sketch"
	"elga/internal/transport"
	"elga/internal/wire"
)

// peerSink is a stand-in for a peer agent: it acknowledges whatever it is
// sent and keeps the edge shipments (all copies in got, runs listed copy by
// copy, and frame by frame in batches), replica registrations and
// vertex-message entries, synchronous and asynchronous apart.
type peerSink struct {
	node    *transport.Node
	mu      sync.Mutex
	got     []wire.EdgeChange
	batches []wire.EdgeBatch
	regs    []graph.VertexID
	msgs    []wire.VertexMsg
	async   []wire.VertexMsg
	// partials holds the records of each TReplicaPartial frame received.
	partials [][]wire.ReplicaPartial
}

// waitMsgs returns the vertex-message entries received once there are at
// least n of them (and whatever arrived with them).
func (p *peerSink) waitMsgs(t *testing.T, n int) []wire.VertexMsg {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		msgs := append([]wire.VertexMsg(nil), p.msgs...)
		p.mu.Unlock()
		if len(msgs) >= n {
			return msgs
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer received %d vertex-message entries, want %d", len(msgs), n)
		}
	}
}

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

func newPeerSink(t *testing.T, nw transport.Network) *peerSink {
	t.Helper()
	node, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &peerSink{node: node}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pkt := range node.Inbox() {
			p.mu.Lock()
			switch pkt.Type {
			case wire.TEdges:
				var b wire.EdgeBatch
				if wire.DecodeEdgeBatchInto(&b, pkt.Payload) == nil {
					p.got = append(append(p.got, b.Changes...), runCopies(b.Runs)...)
					p.batches = append(p.batches, b)
				}
			case wire.TVertexMsgs:
				var b wire.VertexMsgBatch
				if wire.DecodeVertexMsgBatchInto(&b, pkt.Payload) == nil {
					if b.Async {
						p.async = append(p.async, b.Msgs...)
					} else {
						p.msgs = append(p.msgs, b.Msgs...)
					}
				}
			case wire.TReplicaRegister:
				if rr, err := wire.DecodeReplicaRegister(pkt.Payload); err == nil {
					p.regs = append(p.regs, rr.Vertex)
				}
			case wire.TReplicaPartial:
				n, _ := wire.ReplicaPartialCount(pkt.Payload)
				frame := make([]wire.ReplicaPartial, n)
				for i := range frame {
					frame[i] = wire.ReplicaPartialAt(pkt.Payload, i)
				}
				p.partials = append(p.partials, frame)
			}
			p.mu.Unlock()
			node.Ack(pkt)
			wire.ReleasePacket(pkt)
		}
	}()
	t.Cleanup(func() { node.Close(); <-done })
	return p
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
	a := newLoopbackAgent(t, cfg, 0)
	nw := transport.NewInproc()
	peers := map[uint64]*peerSink{2: newPeerSink(t, nw), 3: newPeerSink(t, nw)}
	// The loopback agent lives on its own network; give it a node the
	// peers can be reached from.
	node, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	node.SetAckNotify(true)
	a.node = node
	members := []wire.AgentInfo{{ID: 1, Addr: node.Addr()}, {ID: 2, Addr: peers[2].node.Addr()}, {ID: 3, Addr: peers[3].node.Addr()}}
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
	if k := a.router.Replicas(hub); k != 3 {
		t.Fatalf("hub has %d replicas, want 3", k)
	}

	// Drain the acks so the gate closes and the shipments are all in.
	deadline := time.After(5 * time.Second)
	for len(a.reqToGroups) > 0 {
		select {
		case pkt := <-node.Inbox():
			if pkt.Type == wire.TAck {
				a.onAck(pkt.Req)
			}
			wire.ReleasePacket(pkt)
		case <-deadline:
			t.Fatal("migration shipments never acknowledged")
		}
	}

	shipped := 0
	for id, p := range peers {
		p.mu.Lock()
		for _, c := range p.got {
			shipped++
			if c.Src != hub || c.Dir != graph.Out {
				t.Errorf("agent %d was shipped copy (%d,%d,%d), not one of the hub's", id, c.Src, c.Dst, c.Dir)
			}
			if o, _ := a.router.CopyOwner(c); o != consistent.AgentID(id) {
				t.Errorf("copy (%d,%d) shipped to agent %d, router names %d", c.Src, c.Dst, id, o)
			}
		}
		p.mu.Unlock()
	}
	if shipped == 0 || shipped >= 40 {
		t.Fatalf("%d of the hub's 40 copies moved; a three-way split moves some, not all", shipped)
	}
	if got := a.store.NumEdgeCopies(); got != before-shipped {
		t.Fatalf("agent holds %d copies after shipping %d of %d", got, shipped, before)
	}
	a.store.Copies(func(c graph.EdgeCopy) bool {
		o, _ := a.router.CopyOwner(wire.EdgeChange{Src: c.Src, Dst: c.Dst, Dir: c.Dir})
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
		p := peers[uint64(m)]
		p.mu.Lock()
		regs := append([]graph.VertexID(nil), p.regs...)
		p.mu.Unlock()
		if len(regs) != 1 || regs[0] != hub {
			t.Errorf("master %d saw registrations %v, want the hub", m, regs)
		}
	}
}
