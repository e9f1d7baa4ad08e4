package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Superstep phases carried in Ready/Advance packets.
const (
	// PhaseCompute is the gather→update→scatter phase of a superstep.
	PhaseCompute uint8 = 1
	// PhaseCombine is the split-vertex partial-combination phase.
	PhaseCombine uint8 = 2
	// PhaseMigrate is the edge-rebalancing round after a view change.
	PhaseMigrate uint8 = 3
	// PhaseBatch is the batch-boundary round: agents apply buffered
	// changes, flush sketch deltas, and report local master counts.
	PhaseBatch uint8 = 4
	// PhaseAsyncProbe is a quiescence probe in asynchronous mode: agents
	// answer with their cumulative sent/received message counters.
	PhaseAsyncProbe uint8 = 5
)

// AppendStringList appends a string list payload to dst.
func AppendStringList(dst []byte, items []string) []byte {
	w := Writer{buf: dst}
	w.U32(uint32(len(items)))
	for _, s := range items {
		w.Str(s)
	}
	return w.buf
}

// DecodeStringList parses a string list.
func DecodeStringList(data []byte) ([]string, error) {
	r := NewReader(data)
	n := int(r.U32())
	if r.Err() != nil || n > 1<<20 {
		return nil, fmt.Errorf("decode string list: %w", ErrBadPacket)
	}
	out := make([]string, 0, capHint(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.Str())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode string list: %w", err)
	}
	return out, nil
}

// RunStats is the payload of TRunReply: the outcome of one algorithm run.
type RunStats struct {
	RunID     uint32
	Steps     uint32
	Converged bool
	Wall      time.Duration
	StepTimes []time.Duration
	// Recomputed says an incremental run was run from scratch instead,
	// because edges were deleted since the last from-scratch run.
	Recomputed bool
}

// PerStep returns the mean superstep duration.
func (s *RunStats) PerStep() time.Duration {
	if len(s.StepTimes) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range s.StepTimes {
		total += d
	}
	return total / time.Duration(len(s.StepTimes))
}

// AppendRunStats appends a run statistics payload to dst.
func AppendRunStats(dst []byte, s *RunStats) []byte {
	w := Writer{buf: dst}
	w.U32(s.RunID)
	w.U32(s.Steps)
	w.Bool(s.Converged)
	w.U64(uint64(s.Wall))
	w.U32(uint32(len(s.StepTimes)))
	for _, d := range s.StepTimes {
		w.U64(uint64(d))
	}
	w.Bool(s.Recomputed)
	return w.buf
}

// DecodeRunStats parses run statistics. A step-time count the payload
// cannot hold is ErrShort.
func DecodeRunStats(data []byte) (*RunStats, error) {
	r := NewReader(data)
	s := &RunStats{RunID: r.U32(), Steps: r.U32(), Converged: r.Bool(), Wall: time.Duration(r.U64())}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode run stats: %w", err)
	}
	recs, rest, err := section(data[r.off:], 8)
	if err != nil {
		return nil, fmt.Errorf("decode run stats: %w", err)
	}
	s.StepTimes = make([]time.Duration, len(recs)/8)
	for i := range s.StepTimes {
		s.StepTimes[i] = time.Duration(binary.LittleEndian.Uint64(recs[8*i:]))
	}
	r = NewReader(rest)
	s.Recomputed = r.Bool()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode run stats: %w", err)
	}
	return s, nil
}

// AppendSubscribeTypes appends a TSubscribe payload to dst: the packet
// types the subscriber wants (empty = all broadcasts).
func AppendSubscribeTypes(dst []byte, types ...Type) []byte {
	for _, t := range types {
		dst = append(dst, byte(t))
	}
	return dst
}

// SubscribeTypes encodes a TSubscribe payload: the packet types the
// subscriber wants (empty = all broadcasts).
func SubscribeTypes(types ...Type) []byte {
	return AppendSubscribeTypes(make([]byte, 0, len(types)), types...)
}

// DecodeSubscribeTypes parses a TSubscribe payload.
func DecodeSubscribeTypes(data []byte) []Type {
	out := make([]Type, 0, len(data))
	for _, b := range data {
		out = append(out, Type(b))
	}
	return out
}
