package directory

import (
	"fmt"
	"os"

	"elga/internal/checkpoint"
	"elga/internal/events"
	"elga/internal/trace"
	"elga/internal/wire"
)

// dirCkpt is the coordinator's durability state. Relays never checkpoint
// (they hold no canonical state); a nil writer means durability is off.
type dirCkpt struct {
	cfg    checkpoint.Config
	sink   checkpoint.Sink
	writer *checkpoint.Writer
	seq    uint64
	// marks is the consistent-cut table: the latest durable snapshot
	// each participant key reported (via a report's mark section or a
	// restore-carrying join). It rides the coordinator's own snapshot so
	// a restarted directory knows what its agents can recover to.
	marks map[string]wire.CheckpointMark
	// restored reports whether this coordinator recovered prior state.
	restored bool
}

// initCheckpoint opens the sink and, on the coordinator, restores the
// last published view, identity counters, and cut table before the event
// loop starts — a restarted directory resumes sequencing in-flight
// clusters instead of minting a fresh empty one. Restarting agents then
// rejoin under their old IDs (joins are idempotent by address) and
// present their manifests for warm restore.
func (d *Directory) initCheckpoint() error {
	cfg := d.opts.Checkpoint
	if !cfg.Enabled || !d.coordinator {
		return nil
	}
	if cfg.Key == "" {
		cfg.Key = "coordinator"
	}
	sink, err := checkpoint.Open(cfg)
	if err != nil {
		return err
	}
	st, err := checkpoint.Load(sink, cfg.Key)
	if err != nil {
		return fmt.Errorf("directory: restore %q: %w", cfg.Key, err)
	}
	if st != nil && st.Coord != nil {
		if err := d.restoreCoordState(st); err != nil {
			return fmt.Errorf("directory: restore %q: %w", cfg.Key, err)
		}
		d.ckpt.seq = st.Meta.Seq
		d.ckpt.restored = true
	}
	d.ckpt.cfg = cfg
	d.ckpt.sink = sink
	d.ckpt.writer = checkpoint.NewWriter(sink, cfg.Key)
	if d.ckpt.marks == nil {
		d.ckpt.marks = make(map[string]wire.CheckpointMark)
	}
	return nil
}

// restoreCoordState installs a recovered coordinator snapshot: the view
// codec round-trips membership and sketch exactly
// as subscribers last saw them, and the identity counters resume past
// every ID ever issued. Restored leases start fresh — a recovered agent
// that is truly gone is evicted by the ordinary failure detector after
// one lease timeout, which re-homes its vertices to survivors.
func (d *Directory) restoreCoordState(st *checkpoint.State) error {
	cs := st.Coord
	v, err := wire.DecodeView(cs.View)
	if err != nil {
		return err
	}
	d.epoch = v.Epoch
	d.batchID = v.BatchID
	d.n = v.N
	now := d.ep.Now()
	for _, info := range v.Agents {
		d.agents[info.ID] = info.Addr
		d.leases[info.ID] = now
	}
	if len(v.Sketch) > 0 {
		if err := d.sk.UnmarshalBinary(v.Sketch); err != nil {
			return err
		}
		_ = d.routed.UnmarshalBinary(v.Sketch) // what sk just accepted
	}
	d.nextAgentID = cs.NextAgentID
	d.nextRunID = cs.NextRunID
	d.ckpt.marks = make(map[string]wire.CheckpointMark, len(cs.Marks))
	for _, m := range cs.Marks {
		d.ckpt.marks[m.Meta.Key] = m
	}
	// Resume the event timeline where the snapshot left it, then record
	// the restore itself as the first post-recovery event.
	d.timeline.Restore(cs.Events, cs.EventSeq)
	d.event(events.Info, events.KindRestore, trace.SpanContext{},
		events.U("epoch", d.epoch), events.U("events", uint64(len(cs.Events))))
	fmt.Fprintf(os.Stderr, "elga directory: restored coordinator epoch=%d batch=%d agents=%d marks=%d\n",
		d.epoch, d.batchID, len(d.agents), len(d.ckpt.marks))
	return nil
}

// checkpointCoord snapshots the coordinator's canonical state. It runs
// at view broadcasts and run boundaries — the points where coordinator
// state actually changed and the cluster is coherent. The build is one
// view encode; hashing and I/O happen on the writer goroutine.
func (d *Directory) checkpointCoord() {
	w := d.ckpt.writer
	if w == nil {
		return
	}
	marks := make([]wire.CheckpointMark, 0, len(d.ckpt.marks))
	for _, m := range d.ckpt.marks {
		marks = append(marks, m)
	}
	// Encode fresh rather than aliasing lastView: run and seal boundaries
	// move batchID/N without republishing, and the snapshot must carry
	// the current values.
	cs := wire.CoordState{
		View:        wire.EncodeView(d.view()),
		NextAgentID: d.nextAgentID,
		NextRunID:   d.nextRunID,
		Marks:       marks,
		// The merged timeline rides the snapshot so the cluster's event
		// history survives a full restart (Recent(0) = everything retained).
		Events:   d.timeline.Recent(0),
		EventSeq: d.timeline.Seq(),
	}
	meta := wire.CheckpointMeta{
		Key:       d.ckpt.cfg.Key,
		Seq:       d.ckpt.seq + 1,
		ViewEpoch: d.epoch,
		BatchID:   d.batchID,
		WallNanos: uint64(d.ep.Now().UnixNano()),
	}
	if r := d.run; r != nil {
		meta.RunID = r.spec.RunID
		meta.Step = r.step
	}
	snap := &checkpoint.Snapshot{
		Meta: meta,
		Segments: []checkpoint.Segment{
			{Kind: wire.SegCoord, Payload: wire.EncodeCoordState(&cs)},
		},
	}
	if w.TrySubmit(snap) {
		d.ckpt.seq = meta.Seq
		d.event(events.Info, events.KindCheckpoint, trace.SpanContext{},
			events.U("seq", meta.Seq), events.U("epoch", d.epoch))
	} else {
		d.event(events.Warn, events.KindCheckpointDrop, trace.SpanContext{},
			events.U("seq", meta.Seq))
	}
}

// recordMark folds one participant's durable-snapshot report into the
// cut table. Stale reports (lower Seq under the same Key) are ignored so
// a reordered lossy mark cannot roll the table backwards.
func (d *Directory) recordMark(m *wire.CheckpointMark) {
	if d.ckpt.writer == nil || m.Meta.Key == "" {
		return
	}
	if prev, ok := d.ckpt.marks[m.Meta.Key]; ok && prev.Meta.Seq >= m.Meta.Seq {
		return
	}
	d.ckpt.marks[m.Meta.Key] = *m
}

// closeCheckpoint drains the writer on shutdown.
func (d *Directory) closeCheckpoint() {
	if d.ckpt.writer != nil {
		d.ckpt.writer.Close()
	}
}
