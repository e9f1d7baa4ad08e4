package wire

import (
	"fmt"

	"elga/internal/events"
)

// Checkpoint frames. Durable agent snapshots ride the migration/shipment
// encoding (EdgeBatch changes + vertex states), so the only genuinely new
// wire shapes are the metadata around them:
//
//   - CheckpointMeta stamps a snapshot with the coordinates needed for a
//     globally coherent restore: the view epoch and batch the agent had
//     applied, the run/superstep barrier watermark, the override-table
//     version, and the store's sealed version (so a sink can dedup the
//     sealed-CSR segment by content while the sealed runs stay put).
//   - Manifest lists the content-addressed segments of one snapshot with
//     their per-segment CRCs; it is the durable root object.
//   - CheckpointMark is the lossy agent→coordinator report of the latest
//     durable snapshot, feeding the coordinator's consistent-cut table.
//
// The same codecs frame the on-disk segment files and manifests, so disk
// and network never disagree about the format.

// Segment kinds within a checkpoint manifest.
const (
	// SegSealed holds the raw sealed-CSR runs as an EdgeBatch run section
	// (stable while the store's sealed version is, so its content address
	// rarely changes); one written before runs holds them as changes.
	SegSealed uint8 = 1
	// SegTail holds the delta-log tail: adds and deletes since the
	// sealed generation was folded.
	SegTail uint8 = 2
	// SegStates holds vertex algorithm states + activation flags.
	SegStates uint8 = 3
	// SegCoord holds the coordinator's own state: view, ID counters,
	// and the per-agent cut table. Kind 4 is retired: an older snapshot
	// may hold it, and Load skips it.
	SegCoord uint8 = 5
)

// SegmentKindName names a segment kind for logs.
func SegmentKindName(k uint8) string {
	switch k {
	case SegSealed:
		return "sealed"
	case SegTail:
		return "tail"
	case SegStates:
		return "states"
	case SegCoord:
		return "coord"
	default:
		return fmt.Sprintf("segment(%d)", k)
	}
}

// CheckpointMeta is the consistent-cut stamp on one snapshot.
type CheckpointMeta struct {
	// Key is the stable durable identity of the participant ("agent-0",
	// "coordinator"), surviving restarts that change agent IDs.
	Key string
	// AgentID is the live agent ID at snapshot time (0 for coordinator).
	AgentID uint64
	// Seq increments per snapshot taken under one Key.
	Seq uint64
	// ViewEpoch / BatchID locate the membership view and ingest batch
	// the snapshot reflects.
	ViewEpoch uint64
	BatchID   uint64
	// RunID / Step are the barrier watermark: the last superstep whose
	// compute phase this agent completed before snapshotting (0/0 when
	// idle).
	RunID uint32
	Step  uint32
	// SealedGen is the store's sealed version (graph.Store.SealedVersion),
	// identifying which sealed runs the SegSealed segment serializes.
	SealedGen uint64
	// WallNanos is the snapshot wall-clock time (unix nanos), for
	// checkpoint-age metrics and stale-manifest diagnostics.
	WallNanos uint64
}

func appendCheckpointMeta(w *Writer, m *CheckpointMeta) {
	w.Str(m.Key)
	w.U64(m.AgentID)
	w.U64(m.Seq)
	w.U64(m.ViewEpoch)
	w.U64(m.BatchID)
	w.U32(m.RunID)
	w.U32(m.Step)
	w.U64(m.SealedGen)
	w.U64(m.WallNanos)
}

func readCheckpointMeta(r *Reader) CheckpointMeta {
	return CheckpointMeta{
		Key:       r.Str(),
		AgentID:   r.U64(),
		Seq:       r.U64(),
		ViewEpoch: r.U64(),
		BatchID:   r.U64(),
		RunID:     r.U32(),
		Step:      r.U32(),
		SealedGen: r.U64(),
		WallNanos: r.U64(),
	}
}

// SegmentRef names one content-addressed segment of a snapshot.
type SegmentRef struct {
	Kind uint8
	// Name is the content address (hash of the payload), which is also
	// the segment's filename in a directory sink.
	Name string
	// Length is the payload length in bytes.
	Length uint64
	// CRC is the CRC-32 (IEEE) of the payload.
	CRC uint32
}

// Manifest is the durable root object of one snapshot: its cut stamp and
// the segments that make it up.
type Manifest struct {
	Meta     CheckpointMeta
	Segments []SegmentRef
}

// AppendManifest appends a manifest payload to dst.
func AppendManifest(dst []byte, m *Manifest) []byte {
	w := Writer{buf: dst}
	appendCheckpointMeta(&w, &m.Meta)
	w.U32(uint32(len(m.Segments)))
	for _, s := range m.Segments {
		w.U8(s.Kind)
		w.Str(s.Name)
		w.U64(s.Length)
		w.U32(s.CRC)
	}
	return w.buf
}

// EncodeManifest serializes a manifest.
func EncodeManifest(m *Manifest) []byte { return AppendManifest(nil, m) }

// DecodeManifest parses a manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	r := NewReader(data)
	m := &Manifest{Meta: readCheckpointMeta(r)}
	n := int(r.U32())
	if r.Err() == nil && n < 1<<16 {
		m.Segments = make([]SegmentRef, 0, capHint(n))
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Segments = append(m.Segments, SegmentRef{
				Kind:   r.U8(),
				Name:   r.Str(),
				Length: r.U64(),
				CRC:    r.U32(),
			})
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode manifest: %w", err)
	}
	return m, nil
}

// CheckpointMark is the SecMark report section.
type CheckpointMark struct {
	Meta CheckpointMeta
	// Bytes is the total payload bytes the snapshot wrote (deduplicated
	// segments count zero), for coordinator-side overhead accounting.
	Bytes uint64
}

// AppendCheckpointMark appends a mark payload to dst.
func AppendCheckpointMark(dst []byte, m *CheckpointMark) []byte {
	w := Writer{buf: dst}
	appendCheckpointMeta(&w, &m.Meta)
	w.U64(m.Bytes)
	return w.buf
}

// DecodeCheckpointMark parses a mark.
func DecodeCheckpointMark(data []byte) (*CheckpointMark, error) {
	r := NewReader(data)
	m := &CheckpointMark{Meta: readCheckpointMeta(r)}
	m.Bytes = r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode checkpoint mark: %w", err)
	}
	return m, nil
}

// CoordState is the SegCoord payload: everything the coordinator must
// recover to resume sequencing a cluster — the last published view
// (membership and sketch ride inside it), the identity
// counters that must never re-issue, and the per-participant cut table
// built from checkpoint marks and restore-carrying joins.
type CoordState struct {
	// View is the last published view, encoded with the ordinary view
	// codec so restore replays exactly what subscribers last saw.
	View []byte
	// NextAgentID / NextRunID are the monotonic identity counters; a
	// restore must resume past them so recovered IDs stay unique.
	NextAgentID uint64
	NextRunID   uint32
	// Marks is the consistent-cut table: the latest durable snapshot
	// each participant reported.
	Marks []CheckpointMark
	// Events is the retained slice of the merged cluster timeline
	// (oldest first) and EventSeq its high-water sequence counter, so a
	// restored coordinator resumes the event history where it left off.
	// Absent from pre-event snapshots; the decoder tolerates that.
	Events   []events.Record
	EventSeq uint64
}

// AppendCoordState appends a SegCoord payload to dst.
func AppendCoordState(dst []byte, c *CoordState) []byte {
	w := Writer{buf: dst}
	w.Blob(c.View)
	w.U64(c.NextAgentID)
	w.U32(c.NextRunID)
	w.U32(uint32(len(c.Marks)))
	for i := range c.Marks {
		appendCheckpointMeta(&w, &c.Marks[i].Meta)
		w.U64(c.Marks[i].Bytes)
	}
	w.U64(c.EventSeq)
	w.U32(uint32(len(c.Events)))
	for i := range c.Events {
		appendEventRecord(&w, &c.Events[i])
	}
	return w.buf
}

// EncodeCoordState serializes a coordinator snapshot payload.
func EncodeCoordState(c *CoordState) []byte { return AppendCoordState(nil, c) }

// DecodeCoordState parses a SegCoord payload.
func DecodeCoordState(data []byte) (*CoordState, error) {
	r := NewReader(data)
	c := &CoordState{
		View:        r.Blob(),
		NextAgentID: r.U64(),
		NextRunID:   r.U32(),
	}
	n := int(r.U32())
	if r.Err() == nil && n < 1<<16 {
		c.Marks = make([]CheckpointMark, 0, capHint(n))
		for i := 0; i < n && r.Err() == nil; i++ {
			m := CheckpointMark{Meta: readCheckpointMeta(r)}
			m.Bytes = r.U64()
			c.Marks = append(c.Marks, m)
		}
	}
	// The timeline rides after the cut table.
	c.EventSeq = r.U64()
	ne := int(r.U32())
	if r.Err() == nil {
		c.Events = make([]events.Record, 0, capHint(ne))
		for i := 0; i < ne && r.Err() == nil; i++ {
			c.Events = append(c.Events, readEventRecord(r))
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode coord state: %w", err)
	}
	return c, nil
}
