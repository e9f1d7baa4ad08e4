package agent

import (
	"fmt"
	"os"
	"time"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/trace"
	"elga/internal/wire"
)

// agentCkpt is the event-loop-owned durability state. When the writer is
// nil (durability off) every trigger site costs one predicted branch.
type agentCkpt struct {
	cfg    checkpoint.Config
	sink   checkpoint.Sink
	writer *checkpoint.Writer

	seq        uint64 // next snapshot sequence number under this Key
	stepsSince int    // compute phases since the last snapshot
	lastTimed  time.Time
	// lastMarkSeq is the last snapshot sequence reported to the
	// coordinator; marks ride the lossy report.
	lastMarkSeq uint64
	// restored is the cut stamp of the manifest this process restored
	// from, attached to the join so the coordinator's cut table covers
	// warm rejoins.
	restored *wire.CheckpointMeta
	// restoreCount/restoreSeconds feed the restore metric family.
	restoreCount   uint64
	restoreSeconds float64
}

// initCheckpoint opens the sink, restores any prior snapshot into the
// store/value maps (before the join, so the first view's migration round
// reconciles restored state against live ownership), and starts the
// background writer. Restore failures are fatal only when a manifest
// exists but is damaged — restoring garbage silently would be worse than
// a cold start, so the operator must clear the sink deliberately.
func (a *Agent) initCheckpoint() error {
	cfg := a.opts.Checkpoint
	if !cfg.Enabled {
		return nil
	}
	if cfg.Key == "" {
		return fmt.Errorf("agent: durable checkpointing without a key")
	}
	if cfg.EverySteps <= 0 {
		cfg.EverySteps = checkpoint.DefaultEverySteps
	}
	sink, err := checkpoint.Open(cfg)
	if err != nil {
		return err
	}
	start := a.ep.Now()
	st, err := checkpoint.Load(sink, cfg.Key)
	if err != nil {
		return fmt.Errorf("agent: restore %q: %w", cfg.Key, err)
	}
	if st != nil {
		st.ApplyToStore(a.store)
		for i := range st.States {
			a.installState(&st.States[i])
		}
		meta := st.Meta
		a.ckpt.restored = &meta
		a.ckpt.seq = meta.Seq
		a.ckpt.restoreCount = 1
		a.ckpt.restoreSeconds = a.ep.Now().Sub(start).Seconds()
		fmt.Fprintf(os.Stderr, "elga agent: restored %q seq=%d (%d copies, %d states) in %s\n",
			cfg.Key, meta.Seq, a.store.NumEdgeCopies(), len(st.States),
			a.ep.Now().Sub(start).Round(time.Millisecond))
		a.journal.Emit(events.Info, events.KindRestore, trace.SpanContext{},
			events.U("seq", meta.Seq), events.U("states", uint64(len(st.States))))
	}
	a.ckpt.cfg = cfg
	a.ckpt.sink = sink
	a.ckpt.writer = checkpoint.NewWriter(sink, cfg.Key)
	a.ckpt.lastTimed = a.ep.Now()
	return nil
}

// maybeCheckpointStep runs at the post-vote safe point of every compute
// phase: the barrier vote is already sent, so snapshot encoding overlaps
// the barrier wait instead of stretching the superstep. Non-firing steps
// pay one increment and one compare.
func (a *Agent) maybeCheckpointStep() {
	if a.ckpt.writer == nil {
		return
	}
	a.ckpt.stepsSince++
	if a.ckpt.stepsSince >= a.ckpt.cfg.EverySteps {
		a.checkpointNow(false)
	}
}

// maybeCheckpointTimed runs on the heartbeat tick: the wall-clock cadence
// covers idle periods (no supersteps, no batches) when Interval is set.
func (a *Agent) maybeCheckpointTimed() {
	if a.ckpt.writer == nil || a.ckpt.cfg.Interval <= 0 {
		return
	}
	if a.ep.Now().Sub(a.ckpt.lastTimed) >= a.ckpt.cfg.Interval {
		a.checkpointNow(false)
	}
}

// checkpointNow builds a snapshot of the agent's durable state and hands
// it to the background writer. Building runs on the event loop (the only
// safe reader of store/values); hashing, CRC, and file I/O happen on the
// writer goroutine. A busy writer drops a cadence snapshot — the next
// cadence captures strictly newer state — but never a forced one (run end,
// batch boundary), which no later cadence would make up for.
func (a *Agent) checkpointNow(forced bool) {
	w := a.ckpt.writer
	if w == nil || a.leaving {
		return
	}
	start := a.ep.Now()
	runID := uint32(0)
	if a.run != nil {
		runID = a.run.id
	}
	span := a.tracer.StartRoot("checkpoint-build", runID)
	meta := wire.CheckpointMeta{
		Key:       a.ckpt.cfg.Key,
		AgentID:   a.id,
		Seq:       a.ckpt.seq + 1,
		ViewEpoch: a.router.Epoch(),
		BatchID:   a.router.BatchID(),
		SealedGen: a.store.SealedVersion(),
		WallNanos: uint64(a.ep.Now().UnixNano()),
	}
	if r := a.run; r != nil {
		meta.RunID = r.id
		meta.Step = r.step
	}
	states := make([]wire.VertexState, 0, a.verts.used)
	a.verts.each(func(v graph.VertexID, _ algorithm.Word) {
		st, _ := a.vertexState(v)
		states = append(states, st)
	})
	for _, v := range a.store.ActiveList() {
		if st, _ := a.vertexState(v); st.NoValue {
			states = append(states, st)
		}
	}
	var marks []wire.MailboxWatermark
	if len(a.mailbox) > 0 {
		marks = make([]wire.MailboxWatermark, 0, len(a.mailbox))
		for step, t := range a.mailbox {
			marks = append(marks, wire.MailboxWatermark{RunID: runID, Step: step, Count: uint32(t.live)})
		}
	}
	prevSealed, prevGen := w.LastSealedRef()
	snap := &checkpoint.Snapshot{
		Meta:     meta,
		Segments: checkpoint.BuildSegments(a.store, states, marks, prevSealed, prevGen),
	}
	accepted := forced
	if forced {
		w.Submit(snap)
	} else {
		accepted = w.TrySubmit(snap)
	}
	if accepted {
		a.ckpt.seq = meta.Seq
		a.journal.Emit(events.Info, events.KindCheckpoint, span.Context(),
			events.U("agent", a.id), events.U("seq", meta.Seq), events.U("epoch", meta.ViewEpoch))
	} else {
		a.journal.Emit(events.Warn, events.KindCheckpointDrop, span.Context(),
			events.U("agent", a.id), events.U("seq", meta.Seq))
	}
	a.ckpt.stepsSince = 0
	a.ckpt.lastTimed = a.ep.Now()
	a.m.ckptBuild.Observe(a.ep.Now().Sub(start).Seconds())
	span.End()
}

// isActive is the activation a checkpoint and a migration shipment preserve:
// a vertex is active if the store marks it or the installed run holds it in
// the next compute frontier.
func (a *Agent) isActive(v graph.VertexID) bool {
	if a.store.IsActive(v) {
		return true
	}
	i := a.verts.find(v)
	return a.run != nil && i >= 0 && a.verts.in(setActive, uint32(i))
}

// appendMark appends a newly durable snapshot's mark, for the
// coordinator's cut table, to the report f. Lossy: the snapshot is already
// safe on disk, the mark only freshens the coordinator's view of it.
func (a *Agent) appendMark(f []byte) []byte {
	w := a.ckpt.writer
	if w == nil || a.leaving {
		return f
	}
	mark := w.LastMark()
	if mark == nil || mark.Meta.Seq == a.ckpt.lastMarkSeq {
		return f
	}
	a.ckpt.lastMarkSeq = mark.Meta.Seq
	return wire.AppendSection(f, wire.SecMark, func(b []byte) []byte { return wire.AppendCheckpointMark(b, mark) })
}

// CheckpointStats returns the durable-writer counters (snapshots made
// durable, snapshots dropped on a busy writer, sink errors, post-dedup
// segment bytes); all zero when durability is off. Safe from any
// goroutine — the writer's counters are atomics.
func (a *Agent) CheckpointStats() (count, drops, errs, bytes uint64) {
	if a.ckpt.writer == nil {
		return 0, 0, 0, 0
	}
	return a.ckpt.writer.Stats()
}

// closeCheckpoint drains the writer so the last submitted snapshot is
// durable before the process exits.
func (a *Agent) closeCheckpoint() {
	if a.ckpt.writer != nil {
		a.ckpt.writer.Close()
	}
}
