package agent

import (
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/transport"
	"elga/internal/wire"
)

// newLoopbackAgent hand-assembles an agent whose view contains only
// itself, over a real node, without the directory bootstrap or event loop —
// tests and benchmarks drive handlers directly, exactly as the
// single-threaded event loop would. With one member every routed
// destination is self, so phase handlers exercise the full
// gather→update→scatter path without wire traffic.
func newLoopbackAgent(tb testing.TB, cfg config.Config, n uint64) *Agent {
	tb.Helper()
	nw := transport.NewInproc()
	node, err := transport.NewNode(nw, "", 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(node.Close)
	return selfViewAgent(tb, Options{Config: cfg, Network: nw}, node, n)
}

// newRecordedAgent is newLoopbackAgent over a recorder: what the agent sends
// lands in the recorder as it is sent, on the test goroutine.
func newRecordedAgent(tb testing.TB, cfg config.Config, n uint64) (*Agent, *recorder) {
	tb.Helper()
	rec := &recorder{addr: "agent-1", now: time.Unix(1, 0), to: map[string]*peerLog{}}
	return selfViewAgent(tb, Options{Config: cfg}, rec, n), rec
}

// selfViewAgent is agent 1 over ep under a view holding only itself.
func selfViewAgent(tb testing.TB, opts Options, ep transport.Endpoint, n uint64) *Agent {
	a := New(opts, ep)
	a.id = 1
	v := &wire.View{
		Epoch: 1, BatchID: 1, N: n,
		Agents: []wire.AgentInfo{{ID: a.id, Addr: ep.Addr()}},
	}
	if _, err := a.installView(v); err != nil {
		tb.Fatal(err)
	}
	return a
}

// recorder is a transport.Endpoint that keeps, per destination, what an
// agent sends, synchronously and in order. Acked sends wait in unacked
// until the test feeds their acks back (ackAll); the clock is now.
type recorder struct {
	addr    string
	now     time.Time
	req     uint32
	unacked []uint32
	to      map[string]*peerLog
	order   []string // the destination of every send, in send order
}

// peerLog is what one destination was sent: edge shipments (all copies in
// got, runs listed copy by copy, and frame by frame in batches), replica
// registrations, vertex-message entries (synchronous and asynchronous
// apart), the records of each TReplicaPartial frame and every packet.
type peerLog struct {
	got      []wire.EdgeChange
	batches  []wire.EdgeBatch
	regs     []graph.VertexID
	msgs     []wire.VertexMsg
	async    []wire.VertexMsg
	partials [][]wire.ReplicaPartial
	pkts     []*wire.Packet
}

// log returns addr's log, empty if it was sent nothing.
func (r *recorder) log(addr string) *peerLog {
	l := r.to[addr]
	if l == nil {
		l = &peerLog{}
		r.to[addr] = l
	}
	return l
}

// ackAll feeds a the acks of every acked send, and of those the acks send,
// through Handle.
func (r *recorder) ackAll(a *Agent) {
	for len(r.unacked) > 0 {
		req := r.unacked[0]
		r.unacked = r.unacked[1:]
		a.Handle(&wire.Packet{Type: wire.TAck, Req: req})
	}
}

func (r *recorder) Addr() string   { return r.addr }
func (r *recorder) Now() time.Time { return r.now }

func (r *recorder) NewFrame(typ wire.Type) []byte { return r.NewFrameHint(typ, 0) }

func (r *recorder) NewFrameHint(typ wire.Type, hint int) []byte {
	return wire.AppendFrameHeader(wire.GetFrame(64+hint), typ, 0, r.addr)
}

func (r *recorder) SendFrame(addr string, frame []byte) error {
	if err := wire.FinishFrame(frame); err != nil {
		return err
	}
	pkt := &wire.Packet{}
	if err := wire.UnmarshalPacketInto(pkt, frame, nil); err != nil {
		return err
	}
	l := r.log(addr)
	l.pkts = append(l.pkts, pkt)
	r.order = append(r.order, addr)
	switch pkt.Type {
	case wire.TEdges:
		var b wire.EdgeBatch
		if err := wire.DecodeEdgeBatchInto(&b, pkt.Payload); err != nil {
			return err
		}
		l.got = append(append(l.got, b.Changes...), runCopies(b.Runs)...)
		l.batches = append(l.batches, b)
	case wire.TVertexMsgs:
		var b wire.VertexMsgBatch
		if err := wire.DecodeVertexMsgBatchInto(&b, pkt.Payload); err != nil {
			return err
		}
		if b.Async {
			l.async = append(l.async, b.Msgs...)
		} else {
			l.msgs = append(l.msgs, b.Msgs...)
		}
	case wire.TReplicaRegister:
		rr, err := wire.DecodeReplicaRegister(pkt.Payload)
		if err != nil {
			return err
		}
		l.regs = append(l.regs, rr.Vertex)
	case wire.TReplicaPartial:
		n, _ := wire.ReplicaPartialCount(pkt.Payload)
		frame := make([]wire.ReplicaPartial, n)
		for i := range frame {
			frame[i] = wire.ReplicaPartialAt(pkt.Payload, i)
		}
		l.partials = append(l.partials, frame)
	}
	return nil
}

func (r *recorder) SendFrameAcked(addr string, frame []byte) (uint32, error) {
	r.req++
	wire.PatchFrameReq(frame, r.req)
	if err := r.SendFrame(addr, frame); err != nil {
		return 0, err
	}
	r.unacked = append(r.unacked, r.req)
	return r.req, nil
}

func (r *recorder) ReplyFrame(req *wire.Packet, frame []byte) error {
	wire.PatchFrameReq(frame, req.Req)
	return r.SendFrame(req.From, frame)
}

func (r *recorder) Ack(*wire.Packet)                         {}
func (r *recorder) After(time.Duration, []byte)              {}
func (r *recorder) Inject(wire.Type, []byte) error           { return nil }
func (r *recorder) CancelPeer(string) []transport.FailedSend { return nil }
func (r *recorder) Stats() transport.Stats                   { return transport.Stats{} }
func (r *recorder) Close()                                   {}

// installRun gives the loopback agent a live run context.
func installRun(a *Agent, prog algorithm.Program, n uint64) {
	a.run = &runCtx{
		id:      1,
		spec:    &wire.AlgoStart{RunID: 1, Algo: prog.Name(), FromScratch: true},
		prog:    prog,
		ctx:     algorithm.Context{N: n},
		started: false,
	}
}

// stateOf is v's algorithm state at a, the zero Word if it has none.
func stateOf(a *Agent, v graph.VertexID) algorithm.Word {
	w, _ := a.verts.get(v)
	return w
}

// advanceCompute drives one compute phase the way handleAdvance would,
// with the coordinator vote suppressed (there is no coordinator).
func advanceCompute(a *Agent, step uint32) {
	r := a.run
	r.step = step
	r.ctx.Step = step
	r.phase = wire.PhaseCompute
	r.splitWork = false
	a.phaseGate = &ackGroup{pending: 1} // never drains: no vote
	a.processCompute()
}

// advanceCombine drives one combine phase the way handleAdvance would, with
// the coordinator vote suppressed.
func advanceCombine(a *Agent, step uint32) {
	r := a.run
	r.step = step
	r.ctx.Step = step
	r.phase = wire.PhaseCombine
	a.phaseGate = &ackGroup{pending: 1} // never drains: no vote
	a.processCombine()
}
