package wire

import (
	"bytes"
	"testing"
	"time"

	"elga/internal/trace"
)

func testCtx() trace.SpanContext {
	return trace.SpanContext{
		TraceHi: 0x1122334455667788, TraceLo: 0x99aabbccddeeff00,
		SpanID: 0xdeadbeefcafef00d, RunID: 7, Step: 3, Flags: trace.FlagSampled,
	}
}

func TestPacketCtxRoundTrip(t *testing.T) {
	in := &Packet{Type: TAdvance, Req: 42, From: "inproc-9", Payload: []byte("hi"), Ctx: testCtx()}
	buf, err := MarshalPacket(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalPacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Req != in.Req || out.From != in.From || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("base fields changed: %+v vs %+v", out, in)
	}
	if out.Ctx != in.Ctx {
		t.Fatalf("ctx changed: %+v vs %+v", out.Ctx, in.Ctx)
	}
}

func TestPacketWithoutCtxDecodesZeroCtx(t *testing.T) {
	in := &Packet{Type: TReady, From: "a", Payload: []byte{1}}
	buf, err := MarshalPacket(in)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse a packet that previously carried a context: the decoder must
	// zero it, not leak the stale one.
	p := &Packet{Ctx: testCtx()}
	if err := UnmarshalPacketInto(p, append([]byte(nil), buf...), nil); err != nil {
		t.Fatal(err)
	}
	if p.Ctx.Valid() {
		t.Fatalf("stale ctx survived: %+v", p.Ctx)
	}
}

func TestPacketCtxTruncationRejected(t *testing.T) {
	in := &Packet{Type: TAdvance, From: "x", Payload: []byte("abc"), Ctx: testCtx()}
	buf, err := MarshalPacket(in)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		p := &Packet{}
		if err := UnmarshalPacketInto(p, append([]byte(nil), buf[:cut]...), nil); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestFrameHeaderCtxRoundTrip(t *testing.T) {
	ctx := testCtx()
	frame := AppendFrameHeaderCtx(nil, TAdvance, 9, "agent-3", ctx)
	frame = append(frame, []byte("payload")...)
	if err := FinishFrame(frame); err != nil {
		t.Fatal(err)
	}
	if got := FrameType(frame); got != TAdvance {
		t.Fatalf("FrameType = %v, want %v", got, TAdvance)
	}
	p, err := UnmarshalPacket(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ctx != ctx || p.From != "agent-3" || string(p.Payload) != "payload" {
		t.Fatalf("decoded %+v", p)
	}
}

func TestFrameHeaderCtxInvalidFallsBackToPlain(t *testing.T) {
	frame := AppendFrameHeaderCtx(nil, TReady, 1, "a", trace.SpanContext{})
	plain := AppendFrameHeader(nil, TReady, 1, "a")
	if !bytes.Equal(frame, plain) {
		t.Fatalf("zero ctx emitted an extension: %x vs %x", frame, plain)
	}
}

func TestSpanBatchRoundTrip(t *testing.T) {
	in := &SpanBatch{
		Proc: "agent-2",
		Spans: []trace.SpanRecord{
			{TraceHi: 1, TraceLo: 2, SpanID: 3, Parent: 4, RunID: 5, Step: 6,
				Flags: trace.FlagSampled, Name: "compute", Start: 1234567, Dur: 42 * time.Microsecond},
			{TraceHi: 1, TraceLo: 2, SpanID: 7, Parent: 3, RunID: 5, Step: 6,
				Name: "barrier-wait", Start: 1234999, Dur: time.Millisecond},
		},
	}
	out, err := DecodeSpanBatch(AppendSpanBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Proc != in.Proc || len(out.Spans) != len(in.Spans) {
		t.Fatalf("decoded %+v", out)
	}
	for i := range in.Spans {
		if out.Spans[i] != in.Spans[i] {
			t.Fatalf("span %d: got %+v, want %+v", i, out.Spans[i], in.Spans[i])
		}
	}
}

func TestSpanBatchRejectsTruncation(t *testing.T) {
	buf := AppendSpanBatch(nil, &SpanBatch{Proc: "p", Spans: []trace.SpanRecord{{TraceHi: 1, TraceLo: 1, SpanID: 1, Name: "x"}}})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeSpanBatch(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}
