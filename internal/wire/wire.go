// Package wire defines ElGA's binary message protocol.
//
// As in the paper (§3.5), the first byte of every message is a packet type
// that determines how a Participant handles it; PUB/SUB subscriptions
// filter on this single byte. Payloads are flat little-endian encodings
// with direct memory copies — no reflection, no allocation-heavy formats —
// mirroring ElGA's "simple serialization and deserialization protocol on
// top of ZeroMQ messages".
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"elga/internal/trace"
)

// Type is the 1-byte packet type.
type Type uint8

// Packet types. Grouped by ElGA's three latency classes (§3.1): low-latency
// request/reply (queries, bootstrap), medium-latency push (edges, vertex
// messages, barrier votes), and high-latency publish/subscribe (directory
// updates, superstep advances).
const (
	// TInvalid is never sent; it flags zero-value packets.
	TInvalid Type = iota

	// --- bootstrap / directory master (REQ/REP) ---

	// TRegisterDirectory registers a Directory with the DirectoryMaster.
	TRegisterDirectory
	// TGetDirectory asks the DirectoryMaster for a Directory address.
	TGetDirectory
	// TDirectoryList replies to TGetDirectory.
	TDirectoryList

	// --- membership (PUSH dir<->master, REQ/REP agent<->dir) ---

	// TJoin is an agent's join request to its Directory.
	TJoin
	// TJoinReply carries the allocated agent ID and the current view.
	TJoinReply
	// TLeave announces a graceful agent departure.
	TLeave

	// --- directory state (PUB/SUB) ---

	// TSubscribe adds the sender to a publisher's subscriber set.
	TSubscribe
	// TUnsubscribe removes the sender from a publisher's subscriber set
	// (graceful Participant shutdown).
	TUnsubscribe
	// TDirUpdate broadcasts a new view: epoch, members, sketch, batch.
	TDirUpdate
	// TAdvance broadcasts a superstep/phase transition.
	TAdvance
	// TAlgoStart broadcasts the beginning of an algorithm run.
	TAlgoStart
	// TAlgoDone broadcasts run completion and stats.
	TAlgoDone
	// TBatchOpen broadcasts that agents may apply buffered graph changes.
	TBatchOpen

	// --- data plane (PUSH, acked) ---

	// TEdges carries a batch of edge-change copies to one agent.
	TEdges
	// TVertexMsgs carries a batch of algorithm messages to one agent.
	TVertexMsgs
	// TReplicaPartial carries a split vertex's partial aggregate to its
	// master replica.
	TReplicaPartial
	// TValueUpdate carries a split vertex's combined state from the
	// master to the other replicas.
	TValueUpdate
	// TReplicaRegister tells a master replica that the sender holds
	// copies of a split vertex.
	TReplicaRegister
	// TAck acknowledges receipt *and processing* of an acked push.
	TAck

	// --- control plane (PUSH agent->dir) ---

	// TReady is an agent's barrier vote for a superstep phase.
	TReady
	// TReport carries a participant's lossy planes to the coordinator, a
	// section each (report.go); a lost one costs visibility, never state.
	TReport
	// TSketchDelta carries an agent's local sketch delta to its Directory.
	TSketchDelta

	// --- client boundary (REQ/REP) ---

	// TQuery asks for a vertex's current algorithm result.
	TQuery
	// TQueryReply answers a TQuery.
	TQueryReply
	// TRunAlgo asks the directory system to run an algorithm.
	TRunAlgo
	// TRunReply acknowledges a TRunAlgo with run stats once complete.
	TRunReply
	// TIngest asks the directory to open a batch and quiesce ingestion.
	TIngest
	// TPing measures round-trip latency.
	TPing
	// TPong answers TPing.
	TPong
	// TTick is a coordinator self-timer used to pace async quiescence
	// probes; it never crosses the system boundary.
	TTick
	// THeartbeat is an agent's periodic lease renewal to its coordinator;
	// a lease left unrenewed past the timeout evicts the agent.
	THeartbeat
	// TStatus asks the coordinator for the cluster health rollup and the
	// recent event timeline (client boundary, REQ/REP).
	TStatus
	// TStatusReply answers a TStatus.
	TStatusReply

	typeCount
)

// AckedPush reports whether t is delivered with the acked-PUSH discipline:
// the receiver acknowledges after processing, the sender retransmits on
// loss, and the transport deduplicates redelivery. This is exactly the set
// of types whose loss would wedge a barrier or whose double-processing
// would corrupt state. Lossy traffic (reports, heartbeats) and REQ/REP
// types stay out: requests recover via Retry at the call site.
func AckedPush(t Type) bool {
	switch t {
	case TEdges, TVertexMsgs, TReplicaPartial, TValueUpdate, TReplicaRegister,
		TSketchDelta, TDirUpdate, TAdvance, TAlgoStart, TAlgoDone, TBatchOpen,
		TReady, TSubscribe, TLeave:
		return true
	}
	return false
}

// LazyAck reports whether t is an acked push whose sender never waits on
// the ack: the barrier's own frames and the publisher's broadcasts, whose
// acks only stop retransmission. The transport may hold such an ack until
// the next frame to that sender carries it. The acks of every other acked
// type drain something — an agent's ack group, a streamer's Flush — and
// leave at once.
func LazyAck(t Type) bool {
	switch t {
	case TAdvance, TReady, TAlgoStart, TAlgoDone, TBatchOpen, TDirUpdate:
		return true
	}
	return false
}

var typeNames = [...]string{
	TInvalid: "invalid", TRegisterDirectory: "register-directory",
	TGetDirectory: "get-directory", TDirectoryList: "directory-list",
	TJoin: "join", TJoinReply: "join-reply", TLeave: "leave",
	TSubscribe: "subscribe", TUnsubscribe: "unsubscribe",
	TDirUpdate: "dir-update", TAdvance: "advance", TAlgoStart: "algo-start",
	TAlgoDone: "algo-done", TBatchOpen: "batch-open", TEdges: "edges",
	TVertexMsgs: "vertex-msgs", TReplicaPartial: "replica-partial",
	TValueUpdate: "value-update", TReplicaRegister: "replica-register",
	TAck: "ack", TReady: "ready", TReport: "report",
	TSketchDelta: "sketch-delta", TQuery: "query", TQueryReply: "query-reply",
	TRunAlgo: "run-algo", TRunReply: "run-reply", TIngest: "ingest",
	TPing: "ping", TPong: "pong", TTick: "tick", THeartbeat: "heartbeat",
	TStatus: "status", TStatusReply: "status-reply",
}

// String names the type for logs.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a defined packet type.
func (t Type) Valid() bool { return t > TInvalid && t < typeCount }

// ctxFlag is the type-byte high bit marking a frame that carries a trace
// context between the sender address and the payload length. Packet
// types stay below 0x80, so the bit is free; receivers that predate the
// extension would reject flagged frames as invalid types rather than
// misparse them.
const ctxFlag = 0x80

// compile-time guard: the flag bit must never collide with a type value.
var _ = [1]struct{}{}[typeCount>>7]

// Packet is the unit of communication. From is the sender's listen
// address, so any packet can be replied to or acked; Req correlates
// requests with replies and acked pushes with their TAck.
//
// Payload aliases the frame the packet was unmarshalled from; it is valid
// until the packet is released (ReleasePacket) or the frame is otherwise
// recycled. Consumers that retain payload bytes past that point must copy
// them — the typed DecodeX helpers already do for strings and slices they
// materialize, while Reader.Blob aliases.
type Packet struct {
	Type    Type
	Req     uint32
	From    string
	Payload []byte

	// Ctx is the distributed trace context the frame carried, if any
	// (Ctx.Valid() reports presence). It rides in an optional header
	// extension flagged by the type byte's high bit, so untraced frames
	// pay nothing.
	Ctx trace.SpanContext

	// frame is the pooled receive buffer backing Payload, recycled by
	// ReleasePacket. nil for packets not born from UnmarshalPacketInto.
	frame []byte
}

// ErrShort reports a truncated packet or payload.
var ErrShort = errors.New("wire: short buffer")

// ErrBadPacket reports a structurally invalid packet.
var ErrBadPacket = errors.New("wire: bad packet")

// maxFrame bounds a frame to keep a corrupt length prefix from OOMing the
// receiver. Sketch broadcasts dominate frame size; 64 MiB is ample.
const maxFrame = 64 << 20

// MarshalPacket encodes p as: type(1) req(4) fromLen(2) from payloadLen(4)
// payload. A valid p.Ctx sets the type byte's ctxFlag bit and inserts the
// fixed-size trace context between from and payloadLen.
func MarshalPacket(p *Packet) ([]byte, error) {
	if !p.Type.Valid() {
		return nil, fmt.Errorf("%w: invalid type %d", ErrBadPacket, p.Type)
	}
	if len(p.From) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: from too long", ErrBadPacket)
	}
	typ := byte(p.Type)
	if p.Ctx.Valid() {
		typ |= ctxFlag
	}
	buf := make([]byte, 0, 11+trace.ContextWireLen+len(p.From)+len(p.Payload))
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, p.Req)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.From)))
	buf = append(buf, p.From...)
	if p.Ctx.Valid() {
		buf = trace.Inject(buf, p.Ctx)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Payload)))
	buf = append(buf, p.Payload...)
	return buf, nil
}

// UnmarshalPacket decodes a packet produced by MarshalPacket. The
// packet's Payload aliases data.
func UnmarshalPacket(data []byte) (*Packet, error) {
	p := &Packet{}
	if err := UnmarshalPacketInto(p, data, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalPacketInto decodes a frame into p, aliasing data for the
// payload (no copy). p takes ownership of data: ReleasePacket recycles it
// to the frame pool, so data must come from GetFrame (transport receive
// paths do). intern, when non-nil, dedups the From string across packets
// from the same connection.
//
// On error p still owns data — releasing p reclaims the frame.
func UnmarshalPacketInto(p *Packet, data []byte, intern *FromInterner) error {
	p.frame = data
	if len(data) < 11 {
		return ErrShort
	}
	hasCtx := data[0]&ctxFlag != 0
	p.Type = Type(data[0] &^ ctxFlag)
	if !p.Type.Valid() {
		return fmt.Errorf("%w: type %d", ErrBadPacket, data[0])
	}
	p.Req = binary.LittleEndian.Uint32(data[1:])
	fl := int(binary.LittleEndian.Uint16(data[5:]))
	ext := 0
	if hasCtx {
		ext = trace.ContextWireLen
	}
	if len(data) < 11+fl+ext {
		return ErrShort
	}
	if intern != nil {
		p.From = intern.Intern(data[7 : 7+fl])
	} else {
		p.From = string(data[7 : 7+fl])
	}
	if hasCtx {
		ctx, err := trace.Extract(data[7+fl:])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadPacket, err)
		}
		p.Ctx = ctx
	} else {
		p.Ctx = trace.SpanContext{}
	}
	pl := int(binary.LittleEndian.Uint32(data[7+fl+ext:]))
	if pl > maxFrame || len(data) != 11+fl+ext+pl {
		return fmt.Errorf("%w: payload length %d", ErrBadPacket, pl)
	}
	if pl > 0 {
		p.Payload = data[11+fl+ext:]
	} else {
		p.Payload = nil
	}
	return nil
}

// Writer builds payloads. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) { w.U8(boolByte(v)) }

// boolByte is a boolean's one-byte encoding.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// F64 appends a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string (max 64 KiB).
func (w *Writer) Str(s string) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader consumes payloads written by Writer. Errors are sticky: after the
// first failure every read returns zero values and Err reports the cause.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps data for reading.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first error encountered, or nil. A fully consumed,
// well-formed payload leaves Err nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.take(2)
	if n == nil {
		return ""
	}
	b := r.take(int(binary.LittleEndian.Uint16(n)))
	return string(b)
}

// Blob reads a length-prefixed byte slice, aliasing the underlying buffer.
func (r *Reader) Blob() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > maxFrame {
		r.err = ErrBadPacket
		return nil
	}
	return r.take(int(n))
}
