package directory

import (
	"slices"
	"time"

	"elga/internal/algorithm"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/trace"
	"elga/internal/transport"
	"elga/internal/wire"
)

// round is one barrier (§3.5, Figure 2): a migration round, a batch seal, a
// superstep phase or an async quiescence probe. It waits for the members it
// opened under (and a migration's leavers), and sums their votes.
type round struct {
	phase   uint8
	step    uint32
	waiting map[uint64]bool // the voters yet to vote
	sum     wire.Ready      // the counted votes' fields, summed; flags or-ed
}

// newRound opens a round for (phase, step) that waits for every member and
// for extra.
func (d *Directory) newRound(phase uint8, step uint32, extra ...uint64) *round {
	rd := &round{phase: phase, step: step, waiting: make(map[uint64]bool, len(d.agents)+len(extra))}
	for id := range d.agents {
		rd.waiting[id] = true
	}
	for _, id := range extra {
		rd.waiting[id] = true
	}
	return rd
}

// roundFor is the open round a vote in phase counts toward, nil if none.
func (d *Directory) roundFor(phase uint8) *round {
	switch {
	case phase == wire.PhaseMigrate:
		return d.migration
	case phase == wire.PhaseBatch:
		return d.seal
	case d.run != nil:
		return d.run.barrier
	}
	return nil
}

// handleReady counts a vote once, from a voter its round waits for, for the
// round's phase and step; the last one closes the round.
func (d *Directory) handleReady(m *wire.Ready) {
	rd := d.roundFor(m.Phase)
	if rd == nil || rd.phase != m.Phase || rd.step != m.Step || !rd.waiting[m.AgentID] {
		return
	}
	delete(rd.waiting, m.AgentID)
	s := &rd.sum
	s.ActiveNext += m.ActiveNext
	s.Residual += m.Residual
	s.SplitWork = s.SplitWork || m.SplitWork
	s.Masters += m.Masters
	s.Sent += m.Sent
	s.Received += m.Received
	s.Deleted = s.Deleted || m.Deleted
	d.settle(rd)
}

// settle closes rd once it waits for nobody.
func (d *Directory) settle(rd *round) {
	if len(rd.waiting) > 0 {
		return
	}
	switch rd.phase {
	case wire.PhaseMigrate:
		d.finishMigration()
	case wire.PhaseBatch:
		d.finishSeal()
	case wire.PhaseAsyncProbe:
		d.finishProbe()
	default:
		d.finishPhase()
	}
}

// pruneRounds stops every open round waiting for the dead agents, and
// closes those left waiting for nobody.
func (d *Directory) pruneRounds(dead []uint64) {
	for _, phase := range [...]uint8{wire.PhaseMigrate, wire.PhaseBatch, wire.PhaseCompute} {
		if rd := d.roundFor(phase); rd != nil {
			for _, id := range dead {
				delete(rd.waiting, id)
			}
			d.settle(rd)
		}
	}
}

// runOwner is a run that left vertex values behind: its program, its
// source (0 for a program that reads none), and whether it converged. An
// incremental run continues those values only if it is the same program
// from the same source, they converged, and no delete came since.
type runOwner struct {
	algo      string
	source    graph.VertexID
	converged bool
}

type runState struct {
	req        *wire.Packet
	spec       *wire.AlgoStart
	quiesce    bool
	recomputed bool // an incremental run run from scratch (Directory.owner)
	step       uint32
	paused     bool
	// barrier is the open phase or probe round, nil while paused or between
	// probes.
	barrier   *round
	start     time.Time
	stepStart time.Time
	stepTimes []time.Duration
	// runSpan roots the run's trace; stepSpan covers one superstep
	// (compute + combine) and parents the Advance broadcasts, so agent
	// phase spans link under the step they belong to.
	runSpan  trace.ActiveSpan
	stepSpan trace.ActiveSpan

	// Asynchronous-mode quiescence probing: the last probe's number and
	// counter sums.
	probeSeq  uint32
	prevSent  uint64
	prevRecv  uint64
	prevValid bool
	// lossy records that an agent was evicted mid-run: its unreceived
	// messages make the sent/received sums permanently unbalanced, so
	// quiescence falls back to two consecutive unchanged probes.
	lossy bool
}

// asyncProbeInterval paces quiescence probes.
const asyncProbeInterval = 2 * time.Millisecond

// replyRunStats answers a TRunAlgo request and releases it. A valid ctx
// rides the reply frame so the client can link its own span into the
// run's coordinator-rooted trace.
func (d *Directory) replyRunStats(pkt *wire.Packet, s *wire.RunStats, ctx trace.SpanContext) {
	_ = d.ep.ReplyFrame(pkt, wire.AppendRunStats(transport.NewFrameCtx(d.ep, wire.TRunReply, 0, ctx), s))
	wire.ReleasePacket(pkt)
}

// runQueued reports whether a run request from pkt's sender with pkt's
// request ID is running or waiting to.
func (d *Directory) runQueued(pkt *wire.Packet) bool {
	same := func(q *wire.Packet) bool { return q.From == pkt.From && q.Req == pkt.Req }
	return d.run != nil && same(d.run.req) || slices.ContainsFunc(d.pendingRuns, same)
}

func (d *Directory) maybeStartRun() {
	if d.busy() || d.run != nil || len(d.pendingRuns) == 0 {
		return
	}
	pkt := d.pendingRuns[0]
	d.pendingRuns = d.pendingRuns[1:]
	spec, err := wire.DecodeAlgoStart(pkt.Payload)
	if err != nil {
		d.replyRunStats(pkt, &wire.RunStats{}, trace.SpanContext{})
		return
	}
	prog, err := algorithm.New(spec.Algo)
	if err != nil {
		d.replyRunStats(pkt, &wire.RunStats{}, trace.SpanContext{})
		return
	}
	d.nextRunID++
	spec.RunID = d.nextRunID
	if spec.MaxSteps == 0 {
		if prog.HaltOnQuiescence() {
			spec.MaxSteps = 1 << 30
		} else {
			spec.MaxSteps = 20
		}
	}
	if (spec.Async || !spec.FromScratch) && !prog.HaltOnQuiescence() {
		// Asynchronous and incremental execution both require a monotone
		// quiescence-halting program (WCC/BFS/SSSP): only for those does
		// announcing the changed edges reach the from-scratch answer.
		// Reject others (PageRank, PPR).
		d.replyRunStats(pkt, &wire.RunStats{}, trace.SpanContext{})
		return
	}
	// An incremental run announces new edges on top of the values the last
	// run left. That reaches the from-scratch answer only if those values
	// are its own program's, from its source, converged, and no delete has
	// taken away what they were built from.
	source := spec.Source
	if !algorithm.ReadsSource(prog) {
		source = 0
	}
	recomputed := !spec.FromScratch && (d.owner != runOwner{spec.Algo, source, true} || d.deleted)
	spec.FromScratch = spec.FromScratch || recomputed
	d.deleted = false
	d.owner = runOwner{algo: spec.Algo, source: source}
	now := d.ep.Now()
	d.run = &runState{
		req: pkt, spec: spec, quiesce: prog.HaltOnQuiescence(), recomputed: recomputed,
		start: now, stepStart: now,
	}
	// Root the run's trace here: the coordinator owns the trace ID, and
	// every Advance carries a step-span context for agents to link under.
	d.run.runSpan = d.tracer.StartRoot("run", spec.RunID)
	d.event(events.Info, events.KindRunStart, d.run.runSpan.Context(),
		events.U("run", uint64(spec.RunID)), events.S("algo", spec.Algo),
		events.U("agents", uint64(len(d.agents))))
	d.publishAlgoStart(spec)
	if spec.Async {
		// No superstep driving: agents compute as messages arrive; the
		// coordinator probes for quiescence until the counters settle.
		d.ep.After(asyncProbeInterval, nil)
	} else {
		d.openStep()
	}
	if len(d.agents) == 0 {
		d.finishRun(spec.Async)
	}
}

// openStep opens the compute phase of the run's current superstep.
func (d *Directory) openStep() {
	r := d.run
	r.stepStart = d.ep.Now()
	r.stepSpan = d.tracer.StartChild("step", r.runSpan.WithStep(r.step))
	r.barrier = d.newRound(wire.PhaseCompute, r.step)
	d.publishAdvance(&wire.Advance{
		Step: r.step, Phase: wire.PhaseCompute, N: d.n, RunID: r.spec.RunID,
	}, r.stepSpan.Context())
}

// finishPhase closes a superstep phase: a compute phase with split work
// opens the step's combine phase, whose votes count on top of it;
// otherwise the superstep is over, and the run halts or goes on.
func (d *Directory) finishPhase() {
	r := d.run
	rd := r.barrier
	if rd.phase == wire.PhaseCompute && rd.sum.SplitWork {
		// Split vertices exist: run the combine phase before closing
		// the superstep.
		r.barrier = d.newRound(wire.PhaseCombine, r.step)
		r.barrier.sum = rd.sum
		d.publishAdvance(&wire.Advance{
			Step: r.step, Phase: wire.PhaseCombine, N: d.n, RunID: r.spec.RunID,
		}, r.stepSpan.Context())
		return
	}
	r.barrier = nil
	// Superstep complete.
	r.stepSpan.End()
	r.stepSpan = trace.ActiveSpan{}
	stepDur := d.ep.Now().Sub(r.stepStart)
	r.stepTimes = append(r.stepTimes, stepDur)
	d.stepHist.Observe(stepDur.Seconds())
	converged := r.quiesce && rd.sum.ActiveNext == 0 ||
		!r.quiesce && r.spec.Epsilon > 0 && r.step > 0 && rd.sum.Residual < r.spec.Epsilon
	if converged || r.step+1 >= r.spec.MaxSteps {
		d.finishRun(converged)
		return
	}
	r.step++
	if d.migration != nil || len(d.pendingJoins) > 0 || len(d.pendingLeaves) > 0 {
		// An eviction bumped the view mid-phase, or an elastic event is
		// waiting: hold the run at this boundary until membership applies
		// and its migration round completes (Fig. 17); advanceWork resumes
		// it.
		r.paused = true
		d.advanceWork()
		return
	}
	d.openStep()
}

func (d *Directory) resumeRun() {
	r := d.run
	r.paused = false
	// Re-announce the run so agents that joined mid-run learn the spec;
	// agents already in the run ignore the duplicate RunID.
	resume := *r.spec
	resume.Resume = true
	d.publishAlgoStart(&resume)
	d.openStep()
}

func (d *Directory) finishRun(converged bool) {
	r := d.run
	d.run = nil
	d.owner.converged = converged
	steps := r.step
	if len(r.stepTimes) > 0 {
		steps = uint32(len(r.stepTimes))
	}
	// Close the run's trace. The run context rides the TAlgoDone broadcast
	// and the TRunReply so the client can link its own span into the same
	// trace.
	r.stepSpan.End()
	runCtx := r.runSpan.Context()
	d.scratch = wire.AppendAlgoDone(d.scratch[:0], &wire.AlgoDone{
		RunID: r.spec.RunID, Steps: steps, Converged: converged,
	})
	d.pub.PublishCtx(wire.TAlgoDone, d.scratch, runCtx)
	r.runSpan.End()
	converged64 := uint64(0)
	if converged {
		converged64 = 1
	}
	d.event(events.Info, events.KindRunDone, runCtx,
		events.U("run", uint64(r.spec.RunID)), events.U("steps", uint64(steps)),
		events.U("converged", converged64))
	d.replyRunStats(r.req, &wire.RunStats{
		RunID: r.spec.RunID, Steps: steps, Converged: converged,
		Wall: d.ep.Now().Sub(r.start), StepTimes: r.stepTimes, Recomputed: r.recomputed,
	}, runCtx)
	d.shipSpans()
	// Run boundaries persist the bumped run counter (and the freshest cut
	// table) without waiting for the next view change.
	d.checkpointCoord()
	d.advanceWork()
}

// sendAsyncProbe opens a quiescence probe round, asking every agent for its
// message counters.
func (d *Directory) sendAsyncProbe() {
	r := d.run
	if r == nil || !r.spec.Async || r.barrier != nil {
		return
	}
	r.probeSeq++
	r.barrier = d.newRound(wire.PhaseAsyncProbe, r.probeSeq)
	d.publishAdvance(&wire.Advance{
		Step: r.probeSeq, Phase: wire.PhaseAsyncProbe, N: d.n, RunID: r.spec.RunID,
	}, trace.SpanContext{})
}

// finishProbe closes a probe round: when the counters balance and did not
// move since the previous probe, no message can be in flight and the run is
// complete; else the next probe is armed.
func (d *Directory) finishProbe() {
	r := d.run
	sent, recv := r.barrier.sum.Sent, r.barrier.sum.Received
	r.barrier = nil
	balanced := sent == recv || r.lossy
	unchanged := r.prevValid && sent == r.prevSent && recv == r.prevRecv
	r.prevSent, r.prevRecv, r.prevValid = sent, recv, true
	if balanced && unchanged {
		stepDur := d.ep.Now().Sub(r.stepStart)
		r.stepTimes = append(r.stepTimes, stepDur)
		d.stepHist.Observe(stepDur.Seconds())
		d.finishRun(true)
		return
	}
	d.ep.After(asyncProbeInterval, nil)
}
