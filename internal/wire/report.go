package wire

import (
	"encoding/binary"
	"fmt"
)

// A TReport payload is everything one participant has pending for the
// coordinator's lossy planes (§3.4.3's metric stream): the sender's agent
// ID (0 for a client), then sections of kind(1) len(4) body. Every body but
// the metric list is its plane's own codec, named below. A walker skips
// kinds it does not know, so a plane can add a section that an older
// coordinator steps over.
const (
	SecMetrics uint8 = iota + 1 // AppendMetrics
	SecSpans                    // AppendSpanBatch
	SecEvents                   // AppendEventBatch
	SecMark                     // AppendCheckpointMark
	secKinds
)

// AppendReportHeader begins a TReport payload in dst.
func AppendReportHeader(dst []byte, agentID uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, agentID)
}

// AppendSection appends one report section of kind to dst, its body being
// whatever body appends.
func AppendSection(dst []byte, kind uint8, body func([]byte) []byte) []byte {
	at := len(dst)
	dst = body(append(dst, kind, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(dst[at+1:], uint32(len(dst)-at-5))
	return dst
}

// WalkReport calls fn with the sender and each section of a TReport payload
// whose kind it knows, in order. A section that overruns the payload is an
// error; the sections before it have been delivered.
func WalkReport(data []byte, fn func(agentID uint64, kind uint8, body []byte)) error {
	if len(data) < 8 {
		return fmt.Errorf("decode report: %w", ErrShort)
	}
	agentID := binary.LittleEndian.Uint64(data)
	for rest := data[8:]; len(rest) > 0; {
		if len(rest) < 5 || uint64(binary.LittleEndian.Uint32(rest[1:])) > uint64(len(rest)-5) {
			return fmt.Errorf("decode report: %w: a section overruns the payload", ErrShort)
		}
		end := 5 + int(binary.LittleEndian.Uint32(rest[1:]))
		if kind := rest[0]; kind >= SecMetrics && kind < secKinds {
			fn(agentID, kind, rest[5:end])
		}
		rest = rest[end:]
	}
	return nil
}

// Metric is one autoscaler metric sample (§3.4.3).
type Metric struct {
	AgentID uint64
	Name    string
	Value   float64
}

// AppendMetrics appends a metric list to dst: each sample's name and value.
// The sender rides the report header, not the samples.
func AppendMetrics(dst []byte, ms []Metric) []byte {
	w := Writer{buf: dst}
	for i := range ms {
		w.Str(ms[i].Name)
		w.F64(ms[i].Value)
	}
	return w.buf
}

// DecodeMetrics parses a metric list, attributing each sample to agentID.
func DecodeMetrics(agentID uint64, data []byte) ([]Metric, error) {
	r := NewReader(data)
	var ms []Metric
	for r.Remaining() > 0 && r.Err() == nil {
		ms = append(ms, Metric{AgentID: agentID, Name: r.Str(), Value: r.F64()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode metrics: %w", err)
	}
	return ms, nil
}
