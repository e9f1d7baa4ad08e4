package wire

import (
	"fmt"
	"time"

	"elga/internal/trace"
)

// SpanBatch is the SecSpans report section: a participant's completed,
// sampled spans on their way to the coordinator's collector. Proc names
// the participant the spans belong to ("agent-3", "dir-0", "client") so
// the timeline can lane them per process.
type SpanBatch struct {
	Proc  string
	Spans []trace.SpanRecord
}

// AppendSpanBatch appends a span-batch payload to dst.
func AppendSpanBatch(dst []byte, b *SpanBatch) []byte {
	w := Writer{buf: dst}
	w.Str(b.Proc)
	w.U32(uint32(len(b.Spans)))
	for i := range b.Spans {
		s := &b.Spans[i]
		w.U64(s.TraceHi)
		w.U64(s.TraceLo)
		w.U64(s.SpanID)
		w.U64(s.Parent)
		w.U32(s.RunID)
		w.U32(s.Step)
		w.U8(s.Flags)
		w.Str(s.Name)
		w.U64(uint64(s.Start))
		w.U64(uint64(s.Dur))
	}
	return w.buf
}

// DecodeSpanBatch parses a span-batch payload. Spans are materialized
// copies; they outlive the frame.
func DecodeSpanBatch(data []byte) (*SpanBatch, error) {
	r := NewReader(data)
	b := &SpanBatch{Proc: r.Str()}
	n := int(r.U32())
	if r.Err() == nil && n >= 0 {
		b.Spans = make([]trace.SpanRecord, 0, capHint(n))
		for i := 0; i < n && r.Err() == nil; i++ {
			b.Spans = append(b.Spans, trace.SpanRecord{
				TraceHi: r.U64(), TraceLo: r.U64(),
				SpanID: r.U64(), Parent: r.U64(),
				RunID: r.U32(), Step: r.U32(), Flags: r.U8(),
				Name: r.Str(), Start: int64(r.U64()), Dur: time.Duration(r.U64()),
			})
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode span batch: %w", err)
	}
	return b, nil
}
