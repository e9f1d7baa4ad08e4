package wire

import (
	"bytes"
	"testing"

	"elga/internal/events"
)

func testMeta() CheckpointMeta {
	return CheckpointMeta{
		Key:       "agent-3",
		AgentID:   7,
		Seq:       12,
		ViewEpoch: 42,
		BatchID:   5,
		RunID:     9,
		Step:      31,
		SealedGen: 4,
		WallNanos: 1_700_000_000_000_000_000,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Meta: testMeta(),
		Segments: []SegmentRef{
			{Kind: SegSealed, Name: "01-abcdef", Length: 1024, CRC: 0xdeadbeef},
			{Kind: SegTail, Name: "02-001122", Length: 0, CRC: 0},
			{Kind: SegStates, Name: "03-ffee", Length: 77, CRC: 1},
		},
	}
	got, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != m.Meta {
		t.Fatalf("meta mismatch:\n got %+v\nwant %+v", got.Meta, m.Meta)
	}
	if len(got.Segments) != len(m.Segments) {
		t.Fatalf("segments: got %d, want %d", len(got.Segments), len(m.Segments))
	}
	for i, s := range got.Segments {
		if s != m.Segments[i] {
			t.Fatalf("segment %d: got %+v, want %+v", i, s, m.Segments[i])
		}
	}
}

func TestManifestRejectsTruncation(t *testing.T) {
	full := EncodeManifest(&Manifest{
		Meta:     testMeta(),
		Segments: []SegmentRef{{Kind: SegSealed, Name: "01-ab", Length: 3, CRC: 4}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeManifest(full[:n]); err == nil {
			t.Fatalf("truncated manifest at %d accepted", n)
		}
	}
}

func TestCheckpointMarkRoundTrip(t *testing.T) {
	m := &CheckpointMark{Meta: testMeta(), Bytes: 9999}
	got, err := DecodeCheckpointMark(AppendCheckpointMark(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != m.Meta || got.Bytes != m.Bytes {
		t.Fatalf("mark mismatch: got %+v, want %+v", got, m)
	}
	full := AppendCheckpointMark(nil, m)
	for n := 0; n < len(full); n++ {
		if _, err := DecodeCheckpointMark(full[:n]); err == nil {
			t.Fatalf("truncated mark at %d accepted", n)
		}
	}
}

func TestCoordStateRoundTrip(t *testing.T) {
	cs := &CoordState{
		View:        EncodeView(&View{Epoch: 8, BatchID: 2, N: 60, Agents: []AgentInfo{{1, "a"}, {2, "b"}}}),
		NextAgentID: 17,
		NextRunID:   5,
		Marks: []CheckpointMark{
			{Meta: testMeta(), Bytes: 123},
		},
		EventSeq: 42,
		Events: []events.Record{
			{Seq: 41, Time: 99, Level: events.Warn, Kind: events.KindEvict, Proc: "coord"},
			{Seq: 42, Time: 100, Kind: events.KindMigrationStart, Proc: "coord"},
		},
	}
	got, err := DecodeCoordState(EncodeCoordState(cs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.View, cs.View) || got.NextAgentID != 17 || got.NextRunID != 5 {
		t.Fatalf("coord state mismatch: %+v", got)
	}
	if len(got.Marks) != 1 || got.Marks[0] != cs.Marks[0] {
		t.Fatalf("marks mismatch: %+v", got.Marks)
	}
	if got.EventSeq != 42 || len(got.Events) != 2 ||
		got.Events[0] != cs.Events[0] || got.Events[1] != cs.Events[1] {
		t.Fatalf("timeline mismatch: seq=%d events=%+v", got.EventSeq, got.Events)
	}
	v, err := DecodeView(got.View)
	if err != nil || v.Epoch != 8 || len(v.Agents) != 2 {
		t.Fatalf("embedded view mangled: %+v err=%v", v, err)
	}
	// Every truncation is rejected: a snapshot ends after its timeline.
	full := EncodeCoordState(cs)
	for n := 0; n < len(full); n++ {
		if _, err := DecodeCoordState(full[:n]); err == nil {
			t.Fatalf("truncated coord state at %d accepted", n)
		}
	}
}

func TestJoinRestoreRoundTrip(t *testing.T) {
	meta := testMeta()
	j := &Join{Addr: "inproc-9", Restore: &meta}
	got, err := DecodeJoin(AppendJoin(nil, j))
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != j.Addr {
		t.Fatalf("addr: got %q, want %q", got.Addr, j.Addr)
	}
	if got.Restore == nil || *got.Restore != meta {
		t.Fatalf("restore: got %+v, want %+v", got.Restore, meta)
	}
}

func TestJoinWithoutRestoreMatchesLegacyEncoding(t *testing.T) {
	// A restore-free join must encode byte-identically to the pre-restore
	// wire format (just the address), and a legacy payload must decode
	// with a nil Restore — the mixed-version compatibility contract.
	j := &Join{Addr: "inproc-3"}
	enc := AppendJoin(nil, j)
	legacy := (&Writer{}).strOnly(j.Addr)
	if !bytes.Equal(enc, legacy) {
		t.Fatalf("restore-free join diverged from legacy layout:\n got %x\nwant %x", enc, legacy)
	}
	got, err := DecodeJoin(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != j.Addr || got.Restore != nil {
		t.Fatalf("legacy join mangled: %+v", got)
	}
}

// strOnly reproduces the legacy join layout: a lone address string.
func (w *Writer) strOnly(s string) []byte {
	w.Str(s)
	return w.buf
}
