package checkpoint

import (
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"elga/internal/graph"
	"elga/internal/wire"
)

// Segment is one snapshot part before it is made durable: either a fresh
// payload to hash and write, or a reference carried forward from the
// previous manifest (the sealed-CSR fast path when the store's sealed
// version is unchanged).
type Segment struct {
	Kind    uint8
	Payload []byte
	Reuse   *wire.SegmentRef
}

// Snapshot is one checkpoint ready for the background writer.
type Snapshot struct {
	Meta     wire.CheckpointMeta
	Segments []Segment
}

// BuildSegments serializes a store plus the owner's vertex states into
// snapshot segments. Edge topology rides the migration shipment encoding
// (wire.EdgeBatch): the sealed-CSR runs as the run section of one batch, in
// sorted vertex order and with nothing else in it, so its bytes are a
// function of the store's content alone; the delta tail as a second batch of
// inserts and deletes whose Epoch field carries the sealed version.
// prevSealed, when prevSealedGen is the store's SealedVersion, skips
// re-encoding the sealed segment entirely and carries the previous content
// address forward — the incremental fast path.
func BuildSegments(st *graph.Store, states []wire.VertexState, prevSealed *wire.SegmentRef, prevSealedGen uint64) []Segment {
	ver := st.SealedVersion()
	segs := make([]Segment, 0, 3)
	if prevSealed != nil && prevSealedGen == ver {
		segs = append(segs, Segment{Kind: wire.SegSealed, Reuse: prevSealed})
	} else {
		sealed := wire.EdgeBatch{Migration: true}
		st.SealedRuns(func(v graph.VertexID, dir graph.Dir, run []graph.VertexID) bool {
			sealed.Runs = append(sealed.Runs, wire.EdgeRun{Key: v, Dir: dir, Nbrs: run})
			return true
		})
		segs = append(segs, Segment{Kind: wire.SegSealed, Payload: wire.EncodeEdgeBatch(&sealed)})
	}
	tail := wire.EdgeBatch{Epoch: ver, Migration: true}
	st.TailCopies(func(c graph.EdgeCopy, deleted bool) bool {
		act := graph.Insert
		if deleted {
			act = graph.Delete
		}
		tail.Changes = append(tail.Changes, wire.EdgeChange{
			Action: act, Src: c.Src, Dst: c.Dst, Dir: c.Dir,
		})
		return true
	})
	// Pinned zero-edge vertices survive as insert-less states so restore
	// can re-pin them; they already appear in states when the caller
	// tracks their values, so only the edge segments are topology.
	segs = append(segs, Segment{Kind: wire.SegTail, Payload: wire.EncodeEdgeBatch(&tail)})
	segs = append(segs, Segment{Kind: wire.SegStates, Payload: wire.EncodeEdgeBatch(&wire.EdgeBatch{States: states})})
	return segs
}

// Writer makes snapshots durable off the event loop: triggers hand over an
// encoded snapshot (cheap, single-threaded) and a background goroutine
// does the hashing, CRC, file I/O, and manifest commit. One snapshot can
// wait while another is being written. A cadence trigger (TrySubmit) that
// finds the waiting slot taken is dropped and counted — the next cadence
// tick captures strictly newer state, so dropping never loses more than
// one cadence of progress. A forced trigger (Submit) has no next tick to
// rely on, so it is never lost: it replaces whatever is waiting.
type Writer struct {
	sink Sink
	key  string

	mu      sync.Mutex
	pending *Snapshot     // the waiting snapshot; the writer takes it next
	closing bool          // Close was called; exit once pending is written
	wake    chan struct{} // cap 1: pending or closing changed
	done    chan struct{}

	count  atomic.Uint64 // snapshots committed
	drops  atomic.Uint64 // snapshots dropped on a busy writer
	errs   atomic.Uint64 // snapshots failed (sink errors)
	bytes  atomic.Uint64 // cumulative payload bytes written (post-dedup)
	lastNs atomic.Int64  // wall-clock nanos of the last durable commit
	last   atomic.Pointer[wire.CheckpointMark]
	sealed atomic.Pointer[sealedRef]
}

// sealedRef remembers the last committed sealed segment so the next
// build can carry its content address forward without re-encoding.
type sealedRef struct {
	ref wire.SegmentRef
	gen uint64
}

// NewWriter starts the background writer for one participant key.
func NewWriter(sink Sink, key string) *Writer {
	w := &Writer{sink: sink, key: key, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *Writer) loop() {
	defer close(w.done)
	for range w.wake {
		for {
			w.mu.Lock()
			snap, closing := w.pending, w.closing
			w.pending = nil
			w.mu.Unlock()
			if snap == nil {
				if closing {
					return
				}
				break
			}
			if err := w.commit(snap); err != nil {
				w.errs.Add(1)
				fmt.Fprintf(os.Stderr, "elga checkpoint: %s: %v\n", w.key, err)
			}
		}
	}
}

// signal wakes the writer; a wake-up already queued covers this change too.
func (w *Writer) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// commit writes a snapshot's segments (deduplicating by content address)
// and atomically replaces the manifest.
func (w *Writer) commit(snap *Snapshot) error {
	var written uint64
	refs := make([]wire.SegmentRef, 0, len(snap.Segments))
	for _, seg := range snap.Segments {
		if seg.Reuse != nil {
			refs = append(refs, *seg.Reuse)
			continue
		}
		ref := wire.SegmentRef{
			Kind:   seg.Kind,
			Name:   SegmentName(seg.Kind, seg.Payload),
			Length: uint64(len(seg.Payload)),
			CRC:    crcOf(seg.Payload),
		}
		if !w.sink.HasSegment(ref.Name) {
			if err := w.sink.WriteSegment(ref.Name, seg.Kind, seg.Payload); err != nil {
				return err
			}
			written += ref.Length
		}
		refs = append(refs, ref)
	}
	man := wire.Manifest{Meta: snap.Meta, Segments: refs}
	if err := w.sink.WriteManifest(w.key, wire.EncodeManifest(&man)); err != nil {
		return err
	}
	w.count.Add(1)
	w.bytes.Add(written)
	w.lastNs.Store(time.Now().UnixNano())
	w.last.Store(&wire.CheckpointMark{Meta: snap.Meta, Bytes: written})
	for _, ref := range refs {
		if ref.Kind == wire.SegSealed {
			w.sealed.Store(&sealedRef{ref: ref, gen: snap.Meta.SealedGen})
			break
		}
	}
	return nil
}

// LastSealedRef returns the sealed-segment reference and sealed version of
// the last committed snapshot (nil before the first). A builder whose
// store is still at that version reuses the reference instead of
// re-encoding the sealed CSR — the incremental fast path. A stale read
// (the writer mid-commit) only costs a redundant encode; content
// addressing dedups the write.
func (w *Writer) LastSealedRef() (*wire.SegmentRef, uint64) {
	s := w.sealed.Load()
	if s == nil {
		return nil, 0
	}
	return &s.ref, s.gen
}

// TrySubmit hands a cadence snapshot to the background writer, reporting
// false (and counting a drop) when one is already waiting behind the
// snapshot being written.
func (w *Writer) TrySubmit(snap *Snapshot) bool { return w.submit(snap, false) }

// Submit hands over a snapshot that must become durable even if the writer
// is busy — the state at the end of a run or of a batch, which no later
// cadence tick would capture. It never blocks: the snapshot takes the
// waiting slot, replacing an older one there (snapshots are submitted in
// state order, so the newest supersedes).
func (w *Writer) Submit(snap *Snapshot) { w.submit(snap, true) }

func (w *Writer) submit(snap *Snapshot, forced bool) bool {
	w.mu.Lock()
	if w.pending != nil && !forced {
		w.mu.Unlock()
		w.drops.Add(1)
		return false
	}
	w.pending = snap
	w.mu.Unlock()
	w.signal()
	return true
}

// LastMark returns the cut stamp of the most recent durable snapshot, or
// nil before the first commit. Safe from any goroutine.
func (w *Writer) LastMark() *wire.CheckpointMark { return w.last.Load() }

// AgeSeconds returns seconds since the last durable commit (0 before the
// first). Safe from any goroutine (metric scrapes).
func (w *Writer) AgeSeconds() float64 {
	ns := w.lastNs.Load()
	if ns == 0 {
		return 0
	}
	return time.Since(time.Unix(0, ns)).Seconds()
}

// Stats returns committed snapshots, busy drops, sink errors, and
// cumulative post-dedup payload bytes. Safe from any goroutine.
func (w *Writer) Stats() (count, drops, errs, bytes uint64) {
	return w.count.Load(), w.drops.Load(), w.errs.Load(), w.bytes.Load()
}

// Close stops the writer once the waiting snapshot, if any, is committed;
// the last submitted snapshot is durable before Close returns.
func (w *Writer) Close() {
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	w.signal()
	<-w.done
}

// State is a decoded restore: the manifest's cut stamp plus the segment
// contents. Pending mail is not in it (see DESIGN.md "Durability" for why
// replaying it would double-deliver).
type State struct {
	Meta wire.CheckpointMeta
	// SealedRuns is the sealed segment.
	SealedRuns []wire.EdgeRun
	Tail       []wire.EdgeChange
	States     []wire.VertexState
	// Coord is the coordinator's recovered state (nil in agent
	// snapshots).
	Coord *wire.CoordState
}

// Load reads and validates key's snapshot from the sink. It returns
// (nil, nil) when the participant has never checkpointed, and an error
// when a manifest exists but any segment is missing, truncated, or fails
// its CRC — a damaged checkpoint must fail loudly, not restore garbage.
func Load(sink Sink, key string) (*State, error) {
	data, err := sink.ReadManifest(key)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	man, err := wire.DecodeManifest(data)
	if err != nil {
		return nil, err
	}
	st := &State{Meta: man.Meta}
	for _, ref := range man.Segments {
		kind, payload, err := sink.ReadSegment(ref.Name)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: segment %s (%s): %w", ref.Name, wire.SegmentKindName(ref.Kind), err)
		}
		if kind != ref.Kind || uint64(len(payload)) != ref.Length || crcOf(payload) != ref.CRC {
			return nil, fmt.Errorf("checkpoint: segment %s does not match its manifest entry", ref.Name)
		}
		switch ref.Kind {
		case wire.SegSealed:
			b, err := wire.DecodeEdgeBatch(payload)
			if err != nil {
				return nil, err
			}
			st.SealedRuns = b.Runs
		case wire.SegTail:
			b, err := wire.DecodeEdgeBatch(payload)
			if err != nil {
				return nil, err
			}
			st.Tail = b.Changes
		case wire.SegStates:
			b, err := wire.DecodeEdgeBatch(payload)
			if err != nil {
				return nil, err
			}
			st.States = b.States
		case wire.SegCoord:
			cs, err := wire.DecodeCoordState(payload)
			if err != nil {
				return nil, err
			}
			st.Coord = cs
		}
	}
	return st, nil
}

// ApplyToStore rebuilds edge topology into st: the sealed runs first (raw
// sealed runs include delete-logged entries; into an empty store AddRun
// seals each as it is), then the tail replay whose deletes cancel them,
// then one compaction so the restored store starts from a folded sealed
// generation. Equivalence with the original is observational (same
// vertices, neighbors, degrees), not byte-layout identity.
func (s *State) ApplyToStore(st *graph.Store) {
	for _, r := range s.SealedRuns {
		st.AddRun(r.Key, r.Dir, r.Nbrs)
	}
	for _, c := range s.Tail {
		if c.Action == graph.Delete {
			st.RemoveEdge(c.Src, c.Dst, c.Dir)
		} else {
			st.AddEdge(c.Src, c.Dst, c.Dir)
		}
	}
	st.Compact()
}

func crcOf(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }
