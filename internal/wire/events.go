package wire

import (
	"fmt"

	"elga/internal/events"
)

// Event and status frames: the event batch a report carries (SecEvents),
// and TStatus / TStatusReply, the client-boundary introspection op — the
// per-agent health rollup plus the recent slice of the merged timeline.

func appendEventRecord(w *Writer, e *events.Record) {
	w.U64(e.Seq)
	w.U64(uint64(e.Time))
	w.U8(uint8(e.Level))
	w.Str(e.Kind)
	w.Str(e.Proc)
	w.U64(e.TraceHi)
	w.U64(e.TraceLo)
	w.U32(e.RunID)
	w.U32(e.Step)
	w.U8(e.NFields)
	for i := 0; i < int(e.NFields); i++ {
		f := &e.Fields[i]
		w.Str(f.Key)
		w.Bool(f.IsStr)
		if f.IsStr {
			w.Str(f.Str)
		} else {
			w.U64(f.U64)
		}
	}
}

// readEventRecord parses one event record. A corrupt field count still
// consumes the declared fields so the reader stays aligned; only the
// first MaxFields are kept.
func readEventRecord(r *Reader) events.Record {
	e := events.Record{
		Seq:     r.U64(),
		Time:    int64(r.U64()),
		Level:   events.Level(r.U8()),
		Kind:    r.Str(),
		Proc:    r.Str(),
		TraceHi: r.U64(),
		TraceLo: r.U64(),
		RunID:   r.U32(),
		Step:    r.U32(),
	}
	n := int(r.U8())
	for i := 0; i < n && r.Err() == nil; i++ {
		f := events.Field{Key: r.Str(), IsStr: r.Bool()}
		if f.IsStr {
			f.Str = r.Str()
		} else {
			f.U64 = r.U64()
		}
		if i < events.MaxFields {
			e.Fields[i] = f
			e.NFields++
		}
	}
	return e
}

// AppendEventBatch appends an event batch to dst. Each record
// already carries its participant name (stamped by the journal), so the
// coordinator can merge batches from every process into one timeline.
// dropped is the sender's cumulative journal drop counter, letting the
// coordinator account lossiness it never saw.
func AppendEventBatch(dst []byte, evs []events.Record, dropped uint64) []byte {
	w := Writer{buf: dst}
	w.U64(dropped)
	w.U32(uint32(len(evs)))
	for i := range evs {
		appendEventRecord(&w, &evs[i])
	}
	return w.buf
}

// EncodeEventBatch serializes an event batch.
func EncodeEventBatch(evs []events.Record, dropped uint64) []byte {
	return AppendEventBatch(nil, evs, dropped)
}

// DecodeEventBatch parses an event batch. Records are
// materialized copies; they outlive the frame.
func DecodeEventBatch(data []byte) (evs []events.Record, dropped uint64, err error) {
	r := NewReader(data)
	dropped = r.U64()
	n := int(r.U32())
	if r.Err() == nil && n >= 0 {
		evs = make([]events.Record, 0, capHint(n))
		for i := 0; i < n && r.Err() == nil; i++ {
			evs = append(evs, readEventRecord(r))
		}
	}
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("decode event batch: %w", err)
	}
	return evs, dropped, nil
}

// Health status codes, ordered by severity. The coordinator's health
// model assigns one per agent; HealthName renders them for logs and the
// elga status view.
const (
	HealthHealthy uint8 = iota
	HealthLagging
	HealthStraggler
	HealthSuspect
)

// HealthName names a health status code.
func HealthName(s uint8) string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthLagging:
		return "lagging"
	case HealthStraggler:
		return "straggler"
	case HealthSuspect:
		return "suspect"
	default:
		return fmt.Sprintf("health(%d)", s)
	}
}

// AgentHealth is one agent's scored rollup in a TStatusReply: the fused
// EMAs the score was computed from ride along so the operator sees the
// evidence, not just the verdict.
type AgentHealth struct {
	AgentID uint64
	Addr    string
	// Status is one of the Health* codes; Score is the agent's step-time
	// ratio against the cluster median (1.0 = median).
	Status uint8
	Score  float64
	// Cause names the dominant straggler cause ("inbox-backlog",
	// "combine-time", "retransmits", "checkpoint-overlap"); empty while
	// healthy.
	Cause string
	// Signal EMAs: per-step compute and combine seconds, barrier-wait
	// seconds (from span aggregates), inbox/queue depths, and the
	// retransmit rate.
	StepSeconds    float64
	CombineSeconds float64
	BarrierSeconds float64
	InboxDepth     float64
	QueueDepth     float64
	Retransmits    float64
	// Events counts timeline events attributed to this agent;
	// HeartbeatAgeNanos is the time since its last lease renewal.
	Events            uint64
	HeartbeatAgeNanos int64
}

// StatusReply is the TStatusReply payload: cluster coordinates, the
// per-agent health table, and the newest slice of the event timeline.
type StatusReply struct {
	Epoch    uint64
	BatchID  uint64
	Vertices uint64
	// RunID/Step describe the active run when Running; zero otherwise.
	RunID   uint32
	Step    uint32
	Running bool
	// EventSeq is the timeline's high-water sequence number (events ever
	// merged); EventsDropped counts events participants discarded before
	// shipment, as reported via their batches' backpressure counters.
	EventSeq      uint64
	EventsDropped uint64
	Agents        []AgentHealth
	Timeline      []events.Record
}

// AppendStatusReq appends a TStatus request payload: how many timeline
// events the caller wants back (0 = server default).
func AppendStatusReq(dst []byte, maxEvents uint32) []byte {
	w := Writer{buf: dst}
	w.U32(maxEvents)
	return w.buf
}

// DecodeStatusReq parses a TStatus request; a payload shorter than its
// 4 bytes is ErrShort.
func DecodeStatusReq(data []byte) (uint32, error) {
	r := NewReader(data)
	n := r.U32()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("decode status request: %w", err)
	}
	return n, nil
}

// AppendStatusReply appends a TStatusReply payload to dst.
func AppendStatusReply(dst []byte, s *StatusReply) []byte {
	w := Writer{buf: dst}
	w.U64(s.Epoch)
	w.U64(s.BatchID)
	w.U64(s.Vertices)
	w.U32(s.RunID)
	w.U32(s.Step)
	w.Bool(s.Running)
	w.U64(s.EventSeq)
	w.U64(s.EventsDropped)
	w.U32(uint32(len(s.Agents)))
	for i := range s.Agents {
		a := &s.Agents[i]
		w.U64(a.AgentID)
		w.Str(a.Addr)
		w.U8(a.Status)
		w.F64(a.Score)
		w.Str(a.Cause)
		w.F64(a.StepSeconds)
		w.F64(a.CombineSeconds)
		w.F64(a.BarrierSeconds)
		w.F64(a.InboxDepth)
		w.F64(a.QueueDepth)
		w.F64(a.Retransmits)
		w.U64(a.Events)
		w.U64(uint64(a.HeartbeatAgeNanos))
	}
	w.U32(uint32(len(s.Timeline)))
	for i := range s.Timeline {
		appendEventRecord(&w, &s.Timeline[i])
	}
	return w.buf
}

// EncodeStatusReply serializes a TStatusReply payload.
func EncodeStatusReply(s *StatusReply) []byte { return AppendStatusReply(nil, s) }

// DecodeStatusReply parses a TStatusReply payload.
func DecodeStatusReply(data []byte) (*StatusReply, error) {
	r := NewReader(data)
	s := &StatusReply{
		Epoch:         r.U64(),
		BatchID:       r.U64(),
		Vertices:      r.U64(),
		RunID:         r.U32(),
		Step:          r.U32(),
		Running:       r.Bool(),
		EventSeq:      r.U64(),
		EventsDropped: r.U64(),
	}
	na := int(r.U32())
	if r.Err() == nil && na >= 0 {
		s.Agents = make([]AgentHealth, 0, capHint(na))
		for i := 0; i < na && r.Err() == nil; i++ {
			s.Agents = append(s.Agents, AgentHealth{
				AgentID:           r.U64(),
				Addr:              r.Str(),
				Status:            r.U8(),
				Score:             r.F64(),
				Cause:             r.Str(),
				StepSeconds:       r.F64(),
				CombineSeconds:    r.F64(),
				BarrierSeconds:    r.F64(),
				InboxDepth:        r.F64(),
				QueueDepth:        r.F64(),
				Retransmits:       r.F64(),
				Events:            r.U64(),
				HeartbeatAgeNanos: int64(r.U64()),
			})
		}
	}
	nt := int(r.U32())
	if r.Err() == nil && nt >= 0 {
		s.Timeline = make([]events.Record, 0, capHint(nt))
		for i := 0; i < nt && r.Err() == nil; i++ {
			s.Timeline = append(s.Timeline, readEventRecord(r))
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode status reply: %w", err)
	}
	return s, nil
}
