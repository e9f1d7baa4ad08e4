package agent

import (
	"testing"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/route"
	"elga/internal/transport"
	"elga/internal/wire"
)

// newLoopbackAgent hand-assembles an agent whose view contains only
// itself, without the directory bootstrap or event loop — tests and
// benchmarks drive handlers directly, exactly as the single-threaded
// event loop would. With one member every routed destination is self, so
// phase handlers exercise the full gather→update→scatter path without
// wire traffic.
func newLoopbackAgent(tb testing.TB, cfg config.Config, n uint64) *Agent {
	tb.Helper()
	nw := transport.NewInproc()
	node, err := transport.NewNode(nw, "", 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(node.Close)
	a := &Agent{
		opts:        Options{Config: cfg, Network: nw},
		node:        node,
		router:      route.New(cfg),
		id:          1,
		agentStats:  &agentStats{},
		store:       graph.NewStore(),
		skDelta:     cfg.NewSketch(),
		mailbox:     make(map[uint32]*aggTable),
		partials:    make(map[uint32]map[graph.VertexID]partialEntry),
		phaseGate:   &ackGroup{},
		reqToGroups: make(map[uint32][]*ackGroup),
		done:        make(chan struct{}),
	}
	v := &wire.View{
		Epoch: 1, BatchID: 1, N: n,
		Agents: []wire.AgentInfo{{ID: a.id, Addr: node.Addr()}},
	}
	if _, err := a.router.Update(v); err != nil {
		tb.Fatal(err)
	}
	return a
}

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
	r.doneLocal = false
	r.readySent = true
	r.splitWork = false
	a.phaseGate = &ackGroup{}
	a.processCompute()
}

// advanceCombine drives one combine phase the way handleAdvance would, with
// the coordinator vote suppressed.
func advanceCombine(a *Agent, step uint32) {
	r := a.run
	r.step = step
	r.ctx.Step = step
	r.phase = wire.PhaseCombine
	r.doneLocal = false
	r.readySent = true
	a.phaseGate = &ackGroup{}
	a.processCombine()
}
