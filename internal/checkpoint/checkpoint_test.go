package checkpoint

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"elga/internal/graph"
	"elga/internal/wire"
)

func TestSegmentFramingRoundTrip(t *testing.T) {
	payload := []byte("hello checkpoint")
	kind, got, err := UnframeSegment(FrameSegment(wire.SegTail, payload))
	if err != nil {
		t.Fatal(err)
	}
	if kind != wire.SegTail || string(got) != string(payload) {
		t.Fatalf("round trip mangled: kind=%d payload=%q", kind, got)
	}
	// Empty payloads are legal (an idle agent's tail segment).
	if _, got, err := UnframeSegment(FrameSegment(wire.SegStates, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %q %v", got, err)
	}
}

func TestSegmentFramingRejectsCorruption(t *testing.T) {
	frame := FrameSegment(wire.SegSealed, []byte("some sealed content"))

	// Truncation at every prefix must fail (short header or length
	// mismatch), never return garbage.
	for n := 0; n < len(frame); n++ {
		if _, _, err := UnframeSegment(frame[:n]); err == nil {
			t.Fatalf("truncated frame at %d accepted", n)
		}
	}
	// A flipped payload bit must fail the CRC.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := UnframeSegment(bad); err == nil {
		t.Fatal("bit-flipped payload accepted")
	}
	// A wrong magic must fail before anything else is trusted.
	bad = append([]byte(nil), frame...)
	bad[0] ^= 0xff
	if _, _, err := UnframeSegment(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

func TestDirSinkSegmentsAndManifests(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("segment payload")
	name := SegmentName(wire.SegStates, payload)
	if sink.HasSegment(name) {
		t.Fatal("segment exists before write")
	}
	if err := sink.WriteSegment(name, wire.SegStates, payload); err != nil {
		t.Fatal(err)
	}
	if !sink.HasSegment(name) {
		t.Fatal("segment missing after write")
	}
	kind, got, err := sink.ReadSegment(name)
	if err != nil || kind != wire.SegStates || string(got) != string(payload) {
		t.Fatalf("segment read back wrong: kind=%d payload=%q err=%v", kind, got, err)
	}

	if _, err := sink.ReadManifest("agent-0"); !os.IsNotExist(err) {
		t.Fatalf("missing manifest error = %v, want not-exist", err)
	}
	man := []byte("manifest bytes")
	if err := sink.WriteManifest("agent-0", man); err != nil {
		t.Fatal(err)
	}
	got, err = sink.ReadManifest("agent-0")
	if err != nil || string(got) != string(man) {
		t.Fatalf("manifest read back wrong: %q %v", got, err)
	}
}

// snapshotStore builds and synchronously commits one snapshot of st.
func snapshotStore(t *testing.T, sink Sink, key string, st *graph.Store, states []wire.VertexState, seq uint64) {
	t.Helper()
	w := NewWriter(sink, key)
	defer w.Close()
	snapshotWith(t, w, st, states, seq)
}

func snapshotWith(t *testing.T, w *Writer, st *graph.Store, states []wire.VertexState, seq uint64) {
	t.Helper()
	prev, prevGen := w.LastSealedRef()
	snap := &Snapshot{
		Meta:     wire.CheckpointMeta{Key: w.key, Seq: seq, SealedGen: st.SealedVersion()},
		Segments: BuildSegments(st, states, prev, prevGen),
	}
	if !w.TrySubmit(snap) {
		t.Fatal("writer busy on first submit")
	}
}

// compareStores asserts observational equivalence: same vertices, same
// ascending neighbour lists in both directions.
func compareStores(t *testing.T, seed int64, a, b *graph.Store) {
	t.Helper()
	av, bv := a.VertexList(), b.VertexList()
	if len(av) != len(bv) {
		t.Fatalf("seed %d: vertex count %d != %d (%v vs %v)", seed, len(av), len(bv), av, bv)
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("seed %d: vertex list diverges at %d: %d != %d", seed, i, av[i], bv[i])
		}
	}
	for _, v := range av {
		ao, ai := a.Degree(v)
		bo, bi := b.Degree(v)
		if ao != bo || ai != bi {
			t.Fatalf("seed %d: degree(%d): (%d,%d) != (%d,%d)", seed, v, ao, ai, bo, bi)
		}
		for _, dir := range []graph.Dir{graph.Out, graph.In} {
			ac, bc := a.OutCursor(v), b.OutCursor(v)
			if dir == graph.In {
				ac, bc = a.InCursor(v), b.InCursor(v)
			}
			for i := 0; ; i++ {
				x, aOK := ac.Next()
				y, bOK := bc.Next()
				if x != y || aOK != bOK {
					t.Fatalf("seed %d: neighbour %d of %d in direction %d: %d != %d", seed, i, v, dir, x, y)
				}
				if !aOK {
					break
				}
			}
		}
	}
}

// TestCheckpointRestoreEquivalenceProperty drives a store through
// randomized insert/delete/compact sequences, snapshots it, restores into
// a fresh store, and asserts observational equivalence — across sealed
// generations, delete-logged sealed entries, and tail-only topology.
// TestDirSinkConcurrentWritersOfOneSegment: participants sharing a sink write
// the same content-addressed segment at the same moment (every agent's empty
// states segment, at every batch boundary). Each write must succeed and the
// segment must read back whole at any point: with one temporary name shared
// between them the loser's rename failed, and its snapshot was dropped.
func TestDirSinkConcurrentWritersOfOneSegment(t *testing.T) {
	payload := make([]byte, 1<<16)
	for round := 0; round < 50; round++ {
		sink, err := NewDirSink(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		payload[0] = byte(round)
		name := SegmentName(wire.SegStates, payload)
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = sink.WriteSegment(name, wire.SegStates, payload)
				if errs[w] == nil {
					_, _, errs[w] = sink.ReadSegment(name)
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d writer %d: %v", round, w, err)
			}
		}
		if left, _ := filepath.Glob(filepath.Join(sink.Dir(), "segments", "*.tmp")); len(left) != 0 {
			t.Fatalf("round %d: temporary files left behind: %v", round, left)
		}
	}
}

func TestCheckpointRestoreEquivalenceProperty(t *testing.T) {
	const (
		seeds    = 15
		opsPer   = 500
		universe = 24
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := graph.NewStore()
		st.SetCompactMin(1 + rng.Intn(16))
		for op := 0; op < opsPer; op++ {
			u := graph.VertexID(rng.Intn(universe))
			v := graph.VertexID(rng.Intn(universe))
			dir := graph.Out
			if rng.Intn(2) == 0 {
				dir = graph.In
			}
			if rng.Intn(3) == 0 {
				st.RemoveEdge(u, v, dir)
			} else {
				st.AddEdge(u, v, dir)
			}
			if rng.Intn(29) == 0 {
				st.Compact()
			}
		}

		sink, err := NewDirSink(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		snapshotStore(t, sink, "prop", st, nil, 1)
		state, err := Load(sink, "prop")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if state == nil {
			t.Fatalf("seed %d: no state restored", seed)
		}
		restored := graph.NewStore()
		state.ApplyToStore(restored)
		compareStores(t, seed, st, restored)
	}
}

// TestLoadMissingManifestIsColdStart distinguishes "never checkpointed"
// (nil, nil) from a damaged sink (error).
func TestLoadMissingManifestIsColdStart(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Load(sink, "never")
	if st != nil || err != nil {
		t.Fatalf("cold start: state=%v err=%v, want nil,nil", st, err)
	}
}

// TestLoadRejectsDamage corrupts durable files and asserts Load fails
// loudly instead of restoring garbage.
func TestLoadRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := graph.NewStore()
	st.AddEdge(1, 2, graph.Out)
	st.AddEdge(2, 3, graph.In)
	snapshotStore(t, sink, "victim", st, nil, 1)
	if _, err := Load(sink, "victim"); err != nil {
		t.Fatalf("pristine load failed: %v", err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v %v", segs, err)
	}
	// Flip one byte in every segment in turn; each corruption must be
	// detected (framing CRC or the manifest's independent ref check).
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == segHeaderLen {
			continue // empty payload: nothing to flip without resizing
		}
		bad := append([]byte(nil), data...)
		bad[len(bad)-1] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(sink, "victim"); err == nil {
			t.Fatalf("corrupted %s accepted", filepath.Base(path))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A missing segment must fail even with a pristine manifest.
	if err := os.Rename(segs[0], segs[0]+".gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(sink, "victim"); err == nil {
		t.Fatal("missing segment accepted")
	}
	if err := os.Rename(segs[0]+".gone", segs[0]); err != nil {
		t.Fatal(err)
	}
	// A truncated manifest must fail its own framing.
	manPath := filepath.Join(dir, "victim.manifest")
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, man[:len(man)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(sink, "victim"); err == nil {
		t.Fatal("truncated manifest accepted")
	}
}

// TestSealedSegmentDedup checks the incremental fast path: consecutive
// snapshots between compactions reuse the sealed segment's content
// address instead of rewriting it, so only tail/state bytes hit the sink.
func TestSealedSegmentDedup(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := graph.NewStore()
	st.SetCompactMin(1)
	for i := 0; i < 200; i++ {
		st.AddEdge(graph.VertexID(i%20), graph.VertexID(i), graph.Out)
	}
	st.Compact()

	w := NewWriter(sink, "dedup")
	snapshotWith(t, w, st, nil, 1)
	w.Close() // drain so LastSealedRef is published
	_, _, _, bytesAfterFirst := w.Stats()
	if bytesAfterFirst == 0 {
		t.Fatal("first snapshot wrote nothing")
	}
	ref, gen := w.LastSealedRef()
	if ref == nil || gen != st.SealedVersion() {
		t.Fatalf("sealed ref not published: %v gen=%d", ref, gen)
	}

	// Same generation: the builder must carry the ref forward without
	// re-encoding the sealed CSR.
	segs := BuildSegments(st, nil, ref, gen)
	if segs[0].Reuse == nil || segs[0].Reuse.Name != ref.Name {
		t.Fatalf("sealed segment not reused: %+v", segs[0])
	}

	w2 := NewWriter(sink, "dedup")
	snap := &Snapshot{Meta: wire.CheckpointMeta{Key: "dedup", Seq: 2, SealedGen: gen}, Segments: segs}
	if !w2.TrySubmit(snap) {
		t.Fatal("second submit refused")
	}
	w2.Close()
	_, _, _, bytesSecond := w2.Stats()
	if bytesSecond >= bytesAfterFirst {
		t.Fatalf("second snapshot rewrote sealed data: %d bytes (first wrote %d)", bytesSecond, bytesAfterFirst)
	}

	// After another compaction the generation moves and the sealed
	// segment is re-encoded with a new address.
	st.AddEdge(999, 1000, graph.Out)
	st.Compact()
	segs = BuildSegments(st, nil, ref, gen)
	if segs[0].Reuse != nil {
		t.Fatal("stale sealed ref reused across a compaction")
	}
	w3 := NewWriter(sink, "dedup")
	if !w3.TrySubmit(&Snapshot{Meta: wire.CheckpointMeta{Key: "dedup", Seq: 3, SealedGen: st.SealedVersion()}, Segments: segs}) {
		t.Fatal("third submit refused")
	}
	w3.Close()

	// Restore still round-trips through the deduped manifest chain.
	state, err := Load(sink, "dedup")
	if err != nil || state == nil {
		t.Fatalf("load after dedup: %v %v", state, err)
	}
	restored := graph.NewStore()
	state.ApplyToStore(restored)
	compareStores(t, -1, st, restored)
}

// TestSealedSegmentFollowsTheSealedRuns: a migration round changes the
// sealed runs without compacting — it drops a vertex shipped away, and it
// seals a run that arrives for an empty direction where it is. The snapshot
// after each must not reuse the sealed segment of the one before, or
// restoring it brings the dropped vertex back, or loses the sealed run.
func TestSealedSegmentFollowsTheSealedRuns(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := graph.NewStore()
	for v := graph.VertexID(0); v < 200; v++ {
		for w := graph.VertexID(1000); w < 1010; w++ {
			st.AddEdge(v, w, graph.Out)
		}
	}
	st.Compact()
	compactions := st.Compactions()
	var ref *wire.SegmentRef
	var ver uint64
	for seq, edit := range []func(){
		func() {},
		func() { st.DropVertex(7) },
		func() { st.AddRun(500, graph.In, []graph.VertexID{1, 2, 3}) },
	} {
		edit()
		w := NewWriter(sink, "moved")
		if !w.TrySubmit(&Snapshot{
			Meta:     wire.CheckpointMeta{Key: "moved", Seq: uint64(seq + 1), SealedGen: st.SealedVersion()},
			Segments: BuildSegments(st, nil, ref, ver),
		}) {
			t.Fatal("submit refused")
		}
		w.Close()
		ref, ver = w.LastSealedRef()
		state, err := Load(sink, "moved")
		if err != nil || state == nil {
			t.Fatalf("load: %v %v", state, err)
		}
		restored := graph.NewStore()
		state.ApplyToStore(restored)
		compareStores(t, int64(seq), st, restored)
	}
	if st.Compactions() != compactions {
		t.Fatal("test input: the edits compacted")
	}
}

// TestSealedSegmentIsRuns: the sealed segment holds the sealed runs as an
// edge batch's run section, in vertex order and nothing else, so equal
// content encodes to equal bytes.
func TestSealedSegmentIsRuns(t *testing.T) {
	build := func(order []graph.VertexID) *graph.Store {
		st := graph.NewStore()
		for _, v := range order {
			st.AddRun(v, graph.Out, []graph.VertexID{v + 1, v + 2})
			st.AddRun(v, graph.In, []graph.VertexID{v + 3})
		}
		return st
	}
	a, b := build([]graph.VertexID{1, 5, 9}), build([]graph.VertexID{9, 1, 5})
	segA, segB := BuildSegments(a, nil, nil, 0)[0], BuildSegments(b, nil, nil, 0)[0]
	if string(segA.Payload) != string(segB.Payload) {
		t.Fatal("the same sealed runs, sealed in another order, encode differently")
	}
	got, err := wire.DecodeEdgeBatch(segA.Payload)
	if err != nil || len(got.Changes) != 0 || len(got.Runs) != 6 || got.Runs[0].Key != 1 || got.Runs[1].Dir != graph.In {
		t.Fatalf("sealed segment decodes to %+v, %v", got, err)
	}
}

// TestWriterDropsWhenBusy checks the backpressure contract: a snapshot
// submitted while the writer is mid-commit is dropped and counted, never
// queued without bound.
func TestWriterDropsWhenBusy(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(sink, "busy")
	st := graph.NewStore()
	st.AddEdge(1, 2, graph.Out)
	submitted, dropped := 0, 0
	for i := 0; i < 64; i++ {
		snap := &Snapshot{
			Meta:     wire.CheckpointMeta{Key: "busy", Seq: uint64(i + 1)},
			Segments: BuildSegments(st, nil, nil, 0),
		}
		if w.TrySubmit(snap) {
			submitted++
		} else {
			dropped++
		}
	}
	w.Close()
	count, drops, errs, _ := w.Stats()
	if errs != 0 {
		t.Fatalf("%d sink errors", errs)
	}
	if int(count) != submitted || int(drops) != dropped {
		t.Fatalf("stats (%d committed, %d dropped) disagree with submits (%d, %d)",
			count, drops, submitted, dropped)
	}
	if count == 0 {
		t.Fatal("nothing committed")
	}
}

// gatedSink holds every manifest write until its gate opens, and says when
// the first one has started — a writer that is busy for as long as the test
// needs it to be.
type gatedSink struct {
	Sink
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedSink) WriteManifest(key string, data []byte) error {
	g.once.Do(func() { close(g.started) })
	<-g.gate
	return g.Sink.WriteManifest(key, data)
}

// TestWriterNeverLosesForcedSnapshot: a forced snapshot (the state at the
// end of a run) submitted while the writer is busy and another snapshot is
// already waiting must still become the durable one. TrySubmit in that
// position drops and counts; Submit takes the waiting slot and counts
// nothing.
func TestWriterNeverLosesForcedSnapshot(t *testing.T) {
	dir, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sink := &gatedSink{Sink: dir, started: make(chan struct{}), gate: make(chan struct{})}
	w := NewWriter(sink, "forced")
	st := graph.NewStore()
	st.AddEdge(1, 2, graph.Out)
	snap := func(seq uint64) *Snapshot {
		return &Snapshot{
			Meta:     wire.CheckpointMeta{Key: "forced", Seq: seq},
			Segments: BuildSegments(st, nil, nil, 0),
		}
	}
	if !w.TrySubmit(snap(1)) {
		t.Fatal("idle writer refused a cadence snapshot")
	}
	<-sink.started // seq 1 is being written, and will be until the gate opens
	if !w.TrySubmit(snap(2)) {
		t.Fatal("cadence snapshot refused with the waiting slot free")
	}
	if w.TrySubmit(snap(3)) {
		t.Fatal("cadence snapshot accepted with the waiting slot taken")
	}
	if _, drops, _, _ := w.Stats(); drops != 1 {
		t.Fatalf("drops = %d after one refused cadence snapshot", drops)
	}
	w.Submit(snap(4))
	if _, drops, _, _ := w.Stats(); drops != 1 {
		t.Fatalf("drops = %d after a forced submit, want 1 still", drops)
	}
	close(sink.gate)
	w.Close()
	got, err := Load(dir, "forced")
	if err != nil || got == nil {
		t.Fatalf("load: %v %v", got, err)
	}
	if got.Meta.Seq != 4 {
		t.Fatalf("durable seq = %d, want the forced snapshot's 4", got.Meta.Seq)
	}
	if count, _, errs, _ := w.Stats(); count != 2 || errs != 0 {
		t.Fatalf("committed %d (errs %d), want 2: the one in flight and the forced one", count, errs)
	}
}

// TestAgentKey pins the one per-agent key rule to the keys agents have
// always written: a lone CLI agent keeps its bare base, several in one
// process are numbered, and harness slots are always numbered.
func TestAgentKey(t *testing.T) {
	for _, tc := range []struct {
		base    string
		slot, n int
		want    string
	}{
		{"", 0, 1, "agent"},        // elga agent -n 1
		{"node7", 0, 1, "node7"},   // elga agent -n 1 -ckpt-key node7
		{"", 0, 3, "agent-0"},      // elga agent -n 3
		{"", 2, 3, "agent-2"},      //
		{"node7", 1, 2, "node7-1"}, // elga agent -n 2 -ckpt-key node7
		{"", 0, 0, "agent-0"},      // cluster harness, slot 0
		{"", 5, 0, "agent-5"},      // cluster harness, slot 5
	} {
		if got := AgentKey(tc.base, tc.slot, tc.n); got != tc.want {
			t.Errorf("AgentKey(%q, %d, %d) = %q, want %q", tc.base, tc.slot, tc.n, got, tc.want)
		}
	}
}
