package wire

import (
	"bytes"
	"testing"
)

func TestFrameRoundTripThroughPool(t *testing.T) {
	payload := []byte("hello graph")
	frame := AppendFrameHeader(GetFrame(64), TVertexMsgs, 0, "inproc://a")
	frame = append(frame, payload...)
	PatchFrameReq(frame, 42)
	if err := FinishFrame(frame); err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := UnmarshalPacketInto(&p, frame, nil); err != nil {
		t.Fatal(err)
	}
	if p.Type != TVertexMsgs || p.Req != 42 || p.From != "inproc://a" {
		t.Fatalf("header mismatch: %+v", p)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload mismatch: %q", p.Payload)
	}
	ReleaseFrame(frame)
}

func TestGetFrameRecyclesReleasedBuffers(t *testing.T) {
	// Released frames come back through the size-classed pools with zero
	// length and at least their class capacity.
	f := GetFrame(100)
	if len(f) != 0 || cap(f) < 100 {
		t.Fatalf("GetFrame(100): len=%d cap=%d", len(f), cap(f))
	}
	f = append(f, make([]byte, 300)...)
	ReleaseFrame(f)
	g := GetFrame(100)
	if len(g) != 0 || cap(g) < 100 {
		t.Fatalf("reused frame: len=%d cap=%d", len(g), cap(g))
	}
	ReleaseFrame(g)
	// Oversized buffers (beyond the largest class) are simply dropped.
	ReleaseFrame(make([]byte, (2<<20)+1))
	// Tiny foreign buffers below the smallest class are dropped too.
	ReleaseFrame(make([]byte, 3))
}

func TestFinishFrameRejectsMalformedHeaders(t *testing.T) {
	if err := FinishFrame(nil); err == nil {
		t.Error("nil frame accepted")
	}
	if err := FinishFrame(make([]byte, 5)); err == nil {
		t.Error("truncated frame accepted")
	}
	// fromLen pointing past the end of the frame.
	bad := AppendFrameHeader(nil, TPing, 0, "addr")
	bad = bad[:7] // cut off mid-From
	if err := FinishFrame(bad); err == nil {
		t.Error("frame cut inside From accepted")
	}
}

func TestFromInternerReusesEqualStrings(t *testing.T) {
	var in FromInterner
	a := in.Intern([]byte("inproc://agent-1"))
	b := in.Intern([]byte("inproc://agent-1"))
	if a != b {
		t.Fatal("intern changed value for equal input")
	}
	c := in.Intern([]byte("inproc://agent-2"))
	if c != "inproc://agent-2" {
		t.Fatalf("intern corrupted value: %q", c)
	}
}

// TestAppendVertexMsgBatchAllocs pins the allocation ceiling of the hot
// encode path: appending into a warm pooled frame must not allocate.
func TestAppendVertexMsgBatchAllocs(t *testing.T) {
	batch := &VertexMsgBatch{Step: 7, Msgs: make([]VertexMsg, 256)}
	// Warm the pool with a frame large enough for the batch.
	ReleaseFrame(AppendVertexMsgBatch(GetFrame(8192), batch))
	allocs := testing.AllocsPerRun(100, func() {
		buf := AppendVertexMsgBatch(GetFrame(8192), batch)
		ReleaseFrame(buf)
	})
	if allocs > 0 {
		t.Errorf("pooled AppendVertexMsgBatch allocates %.1f/op, want 0", allocs)
	}
}

// TestDecodeVertexMsgBatchIntoAllocs pins the hot decode path: decoding
// into a warm scratch batch must not allocate.
func TestDecodeVertexMsgBatchIntoAllocs(t *testing.T) {
	data := AppendVertexMsgBatch(nil, &VertexMsgBatch{Step: 7, Msgs: make([]VertexMsg, 256)})
	var scratch VertexMsgBatch
	if err := DecodeVertexMsgBatchInto(&scratch, data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeVertexMsgBatchInto(&scratch, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("scratch DecodeVertexMsgBatchInto allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkWireAppend(b *testing.B) {
	b.Run("vertex-msg-batch-256", func(b *testing.B) {
		batch := &VertexMsgBatch{Step: 1, Msgs: make([]VertexMsg, 256)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReleaseFrame(AppendVertexMsgBatch(GetFrame(8192), batch))
		}
	})
	b.Run("edge-batch-256", func(b *testing.B) {
		batch := &EdgeBatch{Epoch: 3, Changes: make([]EdgeChange, 256)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReleaseFrame(AppendEdgeBatch(GetFrame(8192), batch))
		}
	})
	b.Run("full-frame", func(b *testing.B) {
		// The complete send-side frame build: header + payload + finish.
		batch := &VertexMsgBatch{Step: 1, Msgs: make([]VertexMsg, 256)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := AppendFrameHeader(GetFrame(8192), TVertexMsgs, 0, "inproc://bench")
			f = AppendVertexMsgBatch(f, batch)
			if err := FinishFrame(f); err != nil {
				b.Fatal(err)
			}
			ReleaseFrame(f)
		}
	})
}
