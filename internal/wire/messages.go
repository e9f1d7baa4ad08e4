package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"elga/internal/graph"
)

// Message encoders come in two forms. AppendX(dst, x) appends x's
// encoding to dst — callers on the hot path pass a pooled frame begun by
// AppendFrameHeader so the type byte, header, and payload land in one
// buffer in a single pass with no intermediate copy. EncodeX(x) is the
// convenience form (AppendX(nil, x)) for callers that want a standalone
// payload slice.
//
// Decoders materialize copies of everything they return (strings, element
// slices), so decoded structs outlive the frame they were parsed from;
// the DecodeXInto variants additionally reuse the caller's slice capacity
// so steady-state decode of the data-plane batch types allocates nothing.

// capHint bounds slice preallocation from untrusted counts: corrupt or
// malicious length prefixes must not force large allocations before the
// payload proves it actually carries that many elements.
func capHint(n int) int {
	const max = 4096
	if n > max {
		return max
	}
	if n < 0 {
		return 0
	}
	return n
}

// Word is a raw 64-bit algorithm value. Vertex programs interpret it as a
// float64 (PageRank) or an integer label (WCC/BFS); the wire layer never
// needs to know which.
type Word uint64

// AgentInfo describes one agent in a directory view.
type AgentInfo struct {
	ID   uint64
	Addr string
}

// View is the directory state every Participant tracks: the membership
// epoch, the agent list, the serialized degree sketch, the batch clock and
// the estimated global vertex count. Its broadcast size is O(P + d·w) as
// the paper notes (§3.3).
type View struct {
	Epoch   uint64
	BatchID uint64
	N       uint64 // global vertex count estimate (for PageRank's 1/n term)
	Agents  []AgentInfo
	Sketch  []byte
}

// Precedes reports whether v is older than the view of the given epoch and
// batch: views can arrive out of order, and an older one is dropped.
func (v *View) Precedes(epoch, batchID uint64) bool {
	return v.Epoch < epoch || v.Epoch == epoch && v.BatchID < batchID
}

// AppendView appends a view payload to dst.
func AppendView(dst []byte, v *View) []byte {
	w := Writer{buf: dst}
	w.U64(v.Epoch)
	w.U64(v.BatchID)
	w.U64(v.N)
	w.U32(uint32(len(v.Agents)))
	for _, a := range v.Agents {
		w.U64(a.ID)
		w.Str(a.Addr)
	}
	w.Blob(v.Sketch)
	return w.buf
}

// EncodeView serializes a view payload.
func EncodeView(v *View) []byte { return AppendView(nil, v) }

// DecodeView parses a view payload.
func DecodeView(data []byte) (*View, error) {
	r := NewReader(data)
	v := &View{Epoch: r.U64(), BatchID: r.U64(), N: r.U64()}
	n := int(r.U32())
	if r.Err() == nil && n >= 0 && n < 1<<22 {
		v.Agents = make([]AgentInfo, 0, capHint(n))
		for i := 0; i < n && r.Err() == nil; i++ {
			v.Agents = append(v.Agents, AgentInfo{ID: r.U64(), Addr: r.Str()})
		}
	}
	v.Sketch = append([]byte(nil), r.Blob()...)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode view: %w", err)
	}
	return v, nil
}

// EdgeChange is one routed copy of a stream change: the change itself plus
// which direction this copy represents at the destination agent.
type EdgeChange struct {
	Action graph.Action
	Src    graph.VertexID
	Dst    graph.VertexID
	Dir    graph.Dir
}

// VertexState carries one vertex's algorithm state during migration so a
// new owner resumes exactly where the old owner stopped. Active preserves
// the vertex's activation (it must be processed next superstep even
// without mail — e.g. every PageRank vertex). NoValue marks a vertex no run
// has reached yet — one a batch inserted — whose State means nothing: it
// travels for its activation alone. Both ride one flags byte (bit 0 active,
// bit 1 no value), so a record is 17 bytes and one written before NoValue
// existed decodes as it did.
type VertexState struct {
	Vertex  graph.VertexID
	State   Word
	Active  bool
	NoValue bool
}

// Vertex-state flag bits.
const (
	stateActive  = 1 << 0
	stateNoValue = 1 << 1
)

// EdgeRun is the copies one key vertex holds in one direction, given as its
// neighbours, strictly ascending: an Out run's copies are (Key, w), an In
// run's (w, Key). It is the unit migration moves and a checkpoint's sealed
// segment stores.
type EdgeRun struct {
	Key  graph.VertexID
	Dir  graph.Dir
	Nbrs []graph.VertexID
}

// EdgeBatch is the payload of TEdges.
type EdgeBatch struct {
	// Epoch is the sender's view epoch, used by the receiver to detect
	// staleness.
	Epoch uint64
	// Migration marks copies handed over during rebalancing rather than
	// fresh stream changes (they bypass the "buffer during batch" rule).
	Migration bool
	// Changes are copies one at a time: what stream batches carry, since
	// deletes and unsorted input need it.
	Changes []EdgeChange
	// States accompanies migrations: algorithm state of the vertices
	// whose copies are moving.
	States []VertexState
	// Runs are copies a run at a time: what migrations carry. The section
	// trails the payload.
	Runs []EdgeRun

	// nbrs backs the decoded runs' neighbour lists, reused across decodes.
	nbrs []graph.VertexID
}

// The per-record sections of the two data-plane batches are fixed-stride:
// a u32 count, then that many records of one size, each field at a fixed
// offset. A change is its action|dir tag (1 byte), source and destination (8
// each); a vertex state its vertex and state (8 each) and flags (1); a vertex
// message its target, via and value (8 each). A run is its key (8), a
// change's action|dir tag (1; runs are inserts), its length (4) and its
// neighbours (8 each).
const (
	changeSize    = 1 + 8 + 8
	stateSize     = 8 + 8 + 1
	vertexMsgSize = 8 + 8 + 8
	runHeaderSize = 8 + 1 + 4
)

// A truncated batch or a count its payload cannot hold is refused with an
// error made once, so refusing costs the receiver no allocation.
var (
	errShortEdges = fmt.Errorf("decode edge batch: %w", ErrShort)
	errShortMsgs  = fmt.Errorf("decode vertex msgs: %w", ErrShort)
)

// grow extends dst by n bytes, returning it and the n bytes to fill.
func grow(dst []byte, n int) ([]byte, []byte) {
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	return dst, dst[at:]
}

// appendSection appends a section's count and grows dst by its n records of
// size bytes, returning it and the records' bytes to fill.
func appendSection(dst []byte, n, size int) ([]byte, []byte) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return grow(dst, n*size)
}

// section splits a counted section of records of size bytes off data: its
// records' bytes and what follows them. A count the payload cannot hold is
// ErrShort; the check reads the section's whole length once, so no record
// needs its own.
func section(data []byte, size int) (recs, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, ErrShort
	}
	n := uint64(binary.LittleEndian.Uint32(data))
	if data = data[4:]; n > uint64(len(data)/size) {
		return nil, nil, ErrShort
	}
	return data[:int(n)*size], data[int(n)*size:], nil
}

// resize returns s at length n, reusing its capacity; the caller overwrites
// every element.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// AppendEdgeBatch appends an edge batch payload to dst.
func AppendEdgeBatch(dst []byte, b *EdgeBatch) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, b.Epoch)
	dst = append(dst, boolByte(b.Migration))
	dst, recs := appendSection(dst, len(b.Changes), changeSize)
	for _, c := range b.Changes {
		rec := recs[:changeSize]
		rec[0] = uint8(c.Action)<<1 | uint8(c.Dir)
		binary.LittleEndian.PutUint64(rec[1:], uint64(c.Src))
		binary.LittleEndian.PutUint64(rec[9:], uint64(c.Dst))
		recs = recs[changeSize:]
	}
	dst, recs = appendSection(dst, len(b.States), stateSize)
	for _, s := range b.States {
		rec := recs[:stateSize]
		binary.LittleEndian.PutUint64(rec, uint64(s.Vertex))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.State))
		rec[16] = boolByte(s.Active)*stateActive | boolByte(s.NoValue)*stateNoValue
		recs = recs[stateSize:]
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Runs)))
	for _, r := range b.Runs {
		var run []byte
		dst, run = grow(dst, runHeaderSize+8*len(r.Nbrs))
		binary.LittleEndian.PutUint64(run, uint64(r.Key))
		run[8] = uint8(graph.Insert)<<1 | uint8(r.Dir)
		binary.LittleEndian.PutUint32(run[9:], uint32(len(r.Nbrs)))
		run = run[runHeaderSize:]
		for _, v := range r.Nbrs {
			binary.LittleEndian.PutUint64(run[:8], uint64(v))
			run = run[8:]
		}
	}
	return dst
}

// EncodeEdgeBatch serializes an edge batch.
func EncodeEdgeBatch(b *EdgeBatch) []byte { return AppendEdgeBatch(nil, b) }

// DecodeEdgeBatchInto parses an edge batch into b, reusing the capacity of
// b.Changes, b.States and the runs' neighbour lists. Nothing in b aliases
// data afterwards.
func DecodeEdgeBatchInto(b *EdgeBatch, data []byte) error {
	b.Changes, b.States, b.Runs, b.nbrs = b.Changes[:0], b.States[:0], b.Runs[:0], b.nbrs[:0]
	switch err := b.decode(data); err {
	case nil:
		return nil
	case ErrShort:
		return errShortEdges
	default:
		return fmt.Errorf("decode edge batch: %w", err)
	}
}

// decode reads data into b, whose sections are empty.
func (b *EdgeBatch) decode(data []byte) error {
	if len(data) < 9 {
		return ErrShort
	}
	b.Epoch, b.Migration = binary.LittleEndian.Uint64(data), data[8] != 0
	recs, data, err := section(data[9:], changeSize)
	if err != nil {
		return err
	}
	b.Changes = resize(b.Changes, len(recs)/changeSize)
	for i := range b.Changes {
		rec := recs[:changeSize]
		b.Changes[i] = EdgeChange{
			Action: graph.Action(rec[0] >> 1),
			Dir:    graph.Dir(rec[0] & 1),
			Src:    graph.VertexID(binary.LittleEndian.Uint64(rec[1:])),
			Dst:    graph.VertexID(binary.LittleEndian.Uint64(rec[9:])),
		}
		recs = recs[changeSize:]
	}
	if recs, data, err = section(data, stateSize); err != nil {
		return err
	}
	b.States = resize(b.States, len(recs)/stateSize)
	for i := range b.States {
		rec := recs[:stateSize]
		b.States[i] = VertexState{
			Vertex:  graph.VertexID(binary.LittleEndian.Uint64(rec)),
			State:   Word(binary.LittleEndian.Uint64(rec[8:])),
			Active:  rec[16]&stateActive != 0,
			NoValue: rec[16]&stateNoValue != 0,
		}
		recs = recs[stateSize:]
	}
	return b.decodeRuns(data)
}

// decodeRuns reads the run section, data, into b.Runs, their neighbour lists
// carved from b.nbrs. A count or a length the payload cannot hold is
// ErrShort; a run that is not inserts or not strictly ascending is
// ErrBadPacket.
func (b *EdgeBatch) decodeRuns(data []byte) error {
	r := Reader{buf: data}
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/runHeaderSize {
		return ErrShort
	}
	if cap(b.Runs) < n {
		b.Runs = make([]EdgeRun, 0, n)
	}
	// Every neighbour takes 8 payload bytes, so this bounds them all and
	// the appends below never move the runs' lists.
	if most := r.Remaining() / 8; cap(b.nbrs) < most {
		b.nbrs = make([]graph.VertexID, 0, most)
	}
	for i := 0; i < n; i++ {
		key := graph.VertexID(r.U64())
		tag := r.U8()
		m := int(r.U32())
		if r.Err() != nil || m > r.Remaining()/8 {
			return ErrShort
		}
		if graph.Action(tag>>1) != graph.Insert {
			return fmt.Errorf("%w: run of action %d", ErrBadPacket, tag>>1)
		}
		raw, start := r.take(8*m), len(b.nbrs)
		for j := 0; j < m; j++ {
			v := graph.VertexID(binary.LittleEndian.Uint64(raw[8*j:]))
			if j > 0 && v <= b.nbrs[len(b.nbrs)-1] {
				return fmt.Errorf("%w: run of %d not strictly ascending", ErrBadPacket, key)
			}
			b.nbrs = append(b.nbrs, v)
		}
		b.Runs = append(b.Runs, EdgeRun{Key: key, Dir: graph.Dir(tag & 1), Nbrs: b.nbrs[start:len(b.nbrs):len(b.nbrs)]})
	}
	return nil
}

// DecodeEdgeBatch parses an edge batch.
func DecodeEdgeBatch(data []byte) (*EdgeBatch, error) {
	b := &EdgeBatch{}
	if err := DecodeEdgeBatchInto(b, data); err != nil {
		return nil, err
	}
	return b, nil
}

// VertexMsg is one algorithm message: deliver Value to Target's copy of
// the edge shared with Via. The receiving agent is EdgeOwner(Target, Via).
// In a synchronous batch an entry is the sender's aggregate for Target —
// its messages already gathered, Via the first of their sources — which
// receivers merge (MergeAgg), never gather again.
type VertexMsg struct {
	Target graph.VertexID
	Via    graph.VertexID
	Value  Word
}

// VertexMsgBatch is the payload of TVertexMsgs.
type VertexMsgBatch struct {
	// Step is the superstep the messages are *for* (consumed at Step).
	Step uint32
	// Async marks messages from the asynchronous engine (Step ignored).
	Async bool
	Msgs  []VertexMsg
}

// AppendVertexMsgBatch appends a vertex message batch payload to dst.
func AppendVertexMsgBatch(dst []byte, b *VertexMsgBatch) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, b.Step)
	dst = append(dst, boolByte(b.Async))
	dst, recs := appendSection(dst, len(b.Msgs), vertexMsgSize)
	for _, m := range b.Msgs {
		rec := recs[:vertexMsgSize]
		binary.LittleEndian.PutUint64(rec, uint64(m.Target))
		binary.LittleEndian.PutUint64(rec[8:], uint64(m.Via))
		binary.LittleEndian.PutUint64(rec[16:], uint64(m.Value))
		recs = recs[vertexMsgSize:]
	}
	return dst
}

// DecodeVertexMsgBatchInto parses a vertex message batch into b, reusing
// the capacity of b.Msgs. Nothing in b aliases data afterwards.
func DecodeVertexMsgBatchInto(b *VertexMsgBatch, data []byte) error {
	b.Msgs = b.Msgs[:0]
	if len(data) < 5 {
		return errShortMsgs
	}
	b.Step, b.Async = binary.LittleEndian.Uint32(data), data[4] != 0
	recs, _, err := section(data[5:], vertexMsgSize)
	if err != nil {
		return errShortMsgs
	}
	b.Msgs = resize(b.Msgs, len(recs)/vertexMsgSize)
	for i := range b.Msgs {
		rec := recs[:vertexMsgSize]
		b.Msgs[i] = VertexMsg{
			Target: graph.VertexID(binary.LittleEndian.Uint64(rec)),
			Via:    graph.VertexID(binary.LittleEndian.Uint64(rec[8:])),
			Value:  Word(binary.LittleEndian.Uint64(rec[16:])),
		}
		recs = recs[vertexMsgSize:]
	}
	return nil
}

// DecodeVertexMsgBatch parses a vertex message batch.
func DecodeVertexMsgBatch(data []byte) (*VertexMsgBatch, error) {
	b := &VertexMsgBatch{}
	if err := DecodeVertexMsgBatchInto(b, data); err != nil {
		return nil, err
	}
	return b, nil
}

// ReplicaPartial carries one split vertex's locally aggregated state from
// a replica to the master (phase 1 → phase 2 of a superstep).
type ReplicaPartial struct {
	Step        uint32
	Vertex      graph.VertexID
	Agg         Word
	HaveMsgs    bool
	LocalOutDeg uint64
}

// A TReplicaPartial or TValueUpdate payload is one or more fixed-size
// records back to back: a sender appends every record it has for a peer into
// one frame (AppendReplicaPartial / AppendValueUpdate, once per record) and
// the receiver walks them (XCount, then XAt). The payload carries no count —
// its length is the count — so a frame of one record is that record's
// encoding, and a payload that is not a whole number of records is refused.
const (
	replicaPartialSize = 4 + 8 + 8 + 1 + 8
	valueUpdateSize    = 4 + 8 + 8 + 8 + 1
)

// recordCount is how many size-byte records data holds; an empty payload, or
// one that ends inside a record, is malformed.
func recordCount(data []byte, size int, what string) (int, error) {
	if len(data) == 0 || len(data)%size != 0 {
		return 0, fmt.Errorf("decode %s: %w: %d bytes is not a whole number of %d-byte records",
			what, ErrShort, len(data), size)
	}
	return len(data) / size, nil
}

// AppendReplicaPartial appends one replica partial record to dst.
func AppendReplicaPartial(dst []byte, p *ReplicaPartial) []byte {
	w := Writer{buf: dst}
	w.U32(p.Step)
	w.U64(uint64(p.Vertex))
	w.U64(uint64(p.Agg))
	w.Bool(p.HaveMsgs)
	w.U64(p.LocalOutDeg)
	return w.buf
}

// ReplicaPartialCount returns the number of records in a TReplicaPartial
// payload.
func ReplicaPartialCount(data []byte) (int, error) {
	return recordCount(data, replicaPartialSize, "replica partial")
}

// ReplicaPartialAt returns record i of a payload ReplicaPartialCount
// accepted.
func ReplicaPartialAt(data []byte, i int) ReplicaPartial {
	r := Reader{buf: data[i*replicaPartialSize:][:replicaPartialSize]}
	return ReplicaPartial{
		Step: r.U32(), Vertex: graph.VertexID(r.U64()), Agg: Word(r.U64()),
		HaveMsgs: r.Bool(), LocalOutDeg: r.U64(),
	}
}

// ValueUpdate carries a split vertex's combined authoritative state from
// the master back to the other replicas (phase 2).
type ValueUpdate struct {
	Step        uint32
	Vertex      graph.VertexID
	State       Word
	TotalOutDeg uint64
	// Scatter tells the replica to scatter along its local out-copies.
	Scatter bool
}

// AppendValueUpdate appends one value update record to dst.
func AppendValueUpdate(dst []byte, u *ValueUpdate) []byte {
	w := Writer{buf: dst}
	w.U32(u.Step)
	w.U64(uint64(u.Vertex))
	w.U64(uint64(u.State))
	w.U64(u.TotalOutDeg)
	w.Bool(u.Scatter)
	return w.buf
}

// ValueUpdateCount returns the number of records in a TValueUpdate payload.
func ValueUpdateCount(data []byte) (int, error) {
	return recordCount(data, valueUpdateSize, "value update")
}

// ValueUpdateAt returns record i of a payload ValueUpdateCount accepted.
func ValueUpdateAt(data []byte, i int) ValueUpdate {
	r := Reader{buf: data[i*valueUpdateSize:][:valueUpdateSize]}
	return ValueUpdate{
		Step: r.U32(), Vertex: graph.VertexID(r.U64()), State: Word(r.U64()),
		TotalOutDeg: r.U64(), Scatter: r.Bool(),
	}
}

// ReplicaRegister tells a master that the sending agent holds copies of a
// split vertex and must receive its ValueUpdates — or, with Deregister, that
// it holds none any more.
type ReplicaRegister struct {
	Vertex     graph.VertexID
	AgentID    uint64
	Deregister bool
}

// AppendReplicaRegister appends a replica registration payload to dst.
func AppendReplicaRegister(dst []byte, rr *ReplicaRegister) []byte {
	w := Writer{buf: dst}
	w.U64(uint64(rr.Vertex))
	w.U64(rr.AgentID)
	w.Bool(rr.Deregister)
	return w.buf
}

// DecodeReplicaRegister parses a replica registration.
func DecodeReplicaRegister(data []byte) (*ReplicaRegister, error) {
	r := NewReader(data)
	rr := &ReplicaRegister{Vertex: graph.VertexID(r.U64()), AgentID: r.U64(), Deregister: r.Bool()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode replica register: %w", err)
	}
	return rr, nil
}

// Ready is an agent's barrier vote: it has finished the given phase of the
// given superstep, all its sends are acked, and it reports the aggregate
// statistics the directory folds into the advance decision.
type Ready struct {
	AgentID    uint64
	Step       uint32
	Phase      uint8
	ActiveNext uint64
	Residual   float64
	SplitWork  bool
	Masters    uint64 // local count of vertices this agent masters
	Sent       uint64 // async: cumulative messages sent
	Received   uint64 // async: cumulative messages received
	// PhaseSeconds is how long the phase ran on this agent, Advance to
	// vote: the step_time / combine_time sample, riding the vote.
	PhaseSeconds float64
	// Deleted, on a batch vote, says the agent deleted an edge since its
	// last batch vote.
	Deleted bool
}

// AppendReady appends a barrier vote payload to dst.
func AppendReady(dst []byte, m *Ready) []byte {
	w := Writer{buf: dst}
	w.U64(m.AgentID)
	w.U32(m.Step)
	w.U8(m.Phase)
	w.U64(m.ActiveNext)
	w.F64(m.Residual)
	w.Bool(m.SplitWork)
	w.U64(m.Masters)
	w.U64(m.Sent)
	w.U64(m.Received)
	w.F64(m.PhaseSeconds)
	w.Bool(m.Deleted)
	return w.buf
}

// DecodeReady parses a barrier vote.
func DecodeReady(data []byte) (*Ready, error) {
	r := NewReader(data)
	m := &Ready{
		AgentID: r.U64(), Step: r.U32(), Phase: r.U8(),
		ActiveNext: r.U64(), Residual: r.F64(), SplitWork: r.Bool(),
		Masters: r.U64(), Sent: r.U64(), Received: r.U64(),
		PhaseSeconds: r.F64(), Deleted: r.Bool(),
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode ready: %w", err)
	}
	return m, nil
}

// Advance is the directory's barrier release: enter (Step, Phase). A
// PhaseMigrate Advance closes a migration round.
type Advance struct {
	Step  uint32
	Phase uint8
	N     uint64 // refreshed global vertex count
	RunID uint32
}

// AppendAdvance appends an advance payload to dst.
func AppendAdvance(dst []byte, a *Advance) []byte {
	w := Writer{buf: dst}
	w.U32(a.Step)
	w.U8(a.Phase)
	w.U64(a.N)
	w.U32(a.RunID)
	return w.buf
}

// DecodeAdvance parses an advance broadcast.
func DecodeAdvance(data []byte) (*Advance, error) {
	r := NewReader(data)
	a := &Advance{Step: r.U32(), Phase: r.U8(), N: r.U64(), RunID: r.U32()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode advance: %w", err)
	}
	return a, nil
}

// AlgoStart announces an algorithm run to all agents.
type AlgoStart struct {
	RunID    uint32
	Algo     string
	Async    bool
	MaxSteps uint32
	Epsilon  float64
	// FromScratch re-initializes all vertex state and activates every
	// vertex; otherwise state persists and only the active set runs
	// (the incremental/dynamic mode of §4.3).
	FromScratch bool
	// Source is the root for traversal algorithms (BFS/SSSP).
	Source graph.VertexID
	// Resume marks a mid-run re-announcement for agents that joined
	// during an elastic event; they adopt the run without
	// re-initializing state.
	Resume bool
}

// AppendAlgoStart appends an algorithm start payload to dst.
func AppendAlgoStart(dst []byte, s *AlgoStart) []byte {
	w := Writer{buf: dst}
	w.U32(s.RunID)
	w.Str(s.Algo)
	w.Bool(s.Async)
	w.U32(s.MaxSteps)
	w.F64(s.Epsilon)
	w.Bool(s.FromScratch)
	w.U64(uint64(s.Source))
	w.Bool(s.Resume)
	return w.buf
}

// DecodeAlgoStart parses an algorithm start broadcast.
func DecodeAlgoStart(data []byte) (*AlgoStart, error) {
	r := NewReader(data)
	s := &AlgoStart{
		RunID: r.U32(), Algo: r.Str(), Async: r.Bool(),
		MaxSteps: r.U32(), Epsilon: r.F64(), FromScratch: r.Bool(),
		Source: graph.VertexID(r.U64()),
	}
	s.Resume = r.Bool()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode algo start: %w", err)
	}
	return s, nil
}

// AlgoDone reports run completion.
type AlgoDone struct {
	RunID     uint32
	Steps     uint32
	Converged bool
}

// AppendAlgoDone appends a completion payload to dst.
func AppendAlgoDone(dst []byte, d *AlgoDone) []byte {
	w := Writer{buf: dst}
	w.U32(d.RunID)
	w.U32(d.Steps)
	w.Bool(d.Converged)
	return w.buf
}

// DecodeAlgoDone parses a completion broadcast.
func DecodeAlgoDone(data []byte) (*AlgoDone, error) {
	r := NewReader(data)
	d := &AlgoDone{RunID: r.U32(), Steps: r.U32(), Converged: r.Bool()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode algo done: %w", err)
	}
	return d, nil
}

// Query asks for the algorithm result of one vertex.
type Query struct {
	Vertex graph.VertexID
}

// AppendQuery appends a query payload to dst.
func AppendQuery(dst []byte, q *Query) []byte {
	w := Writer{buf: dst}
	w.U64(uint64(q.Vertex))
	return w.buf
}

// DecodeQuery parses a query.
func DecodeQuery(data []byte) (*Query, error) {
	r := NewReader(data)
	q := &Query{Vertex: graph.VertexID(r.U64())}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode query: %w", err)
	}
	return q, nil
}

// QueryReply answers a query.
type QueryReply struct {
	Found bool
	State Word
	Step  uint32 // superstep of the returned state (staleness indicator)
}

// AppendQueryReply appends a query reply payload to dst.
func AppendQueryReply(dst []byte, q *QueryReply) []byte {
	w := Writer{buf: dst}
	w.Bool(q.Found)
	w.U64(uint64(q.State))
	w.U32(q.Step)
	return w.buf
}

// DecodeQueryReply parses a query reply.
func DecodeQueryReply(data []byte) (*QueryReply, error) {
	r := NewReader(data)
	q := &QueryReply{Found: r.Bool(), State: Word(r.U64()), Step: r.U32()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode query reply: %w", err)
	}
	return q, nil
}

// Join is an agent's registration request. Restore, when present, is the
// cut stamp of the checkpoint manifest the agent restored from before
// joining: the coordinator records it so the cut table covers warm
// rejoins. The section is appended only when present, so a restore-free
// join encodes byte-identically to the legacy format and legacy payloads
// (which end at the address) decode with a nil Restore.
type Join struct {
	Addr    string
	Restore *CheckpointMeta
}

// AppendJoin appends a join request payload to dst.
func AppendJoin(dst []byte, j *Join) []byte {
	w := Writer{buf: dst}
	w.Str(j.Addr)
	if j.Restore != nil {
		appendCheckpointMeta(&w, j.Restore)
	}
	return w.buf
}

// DecodeJoin parses a join request.
func DecodeJoin(data []byte) (*Join, error) {
	r := NewReader(data)
	j := &Join{Addr: r.Str()}
	if r.Err() == nil && r.Remaining() > 0 {
		m := readCheckpointMeta(r)
		if r.Err() == nil {
			j.Restore = &m
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode join: %w", err)
	}
	return j, nil
}

// JoinReply carries the allocated agent ID; the view follows by broadcast.
type JoinReply struct {
	AgentID uint64
	View    *View
}

// AppendJoinReply appends a join reply payload to dst. The nested view is
// appended in place with its blob length patched afterwards, so the reply
// never materializes an intermediate view encoding.
func AppendJoinReply(dst []byte, j *JoinReply) []byte {
	w := Writer{buf: dst}
	w.U64(j.AgentID)
	lenOff := len(w.buf)
	w.U32(0)
	w.buf = AppendView(w.buf, j.View)
	binary.LittleEndian.PutUint32(w.buf[lenOff:], uint32(len(w.buf)-lenOff-4))
	return w.buf
}

// DecodeJoinReply parses a join reply.
func DecodeJoinReply(data []byte) (*JoinReply, error) {
	r := NewReader(data)
	j := &JoinReply{AgentID: r.U64()}
	vb := r.Blob()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode join reply: %w", err)
	}
	v, err := DecodeView(vb)
	if err != nil {
		return nil, err
	}
	j.View = v
	return j, nil
}

// Leave announces a graceful departure.
type Leave struct {
	AgentID uint64
}

// AppendLeave appends a leave payload to dst.
func AppendLeave(dst []byte, l *Leave) []byte {
	w := Writer{buf: dst}
	w.U64(l.AgentID)
	return w.buf
}

// DecodeLeave parses a leave announcement.
func DecodeLeave(data []byte) (*Leave, error) {
	r := NewReader(data)
	l := &Leave{AgentID: r.U64()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode leave: %w", err)
	}
	return l, nil
}

// Heartbeat is an agent's periodic lease renewal to its coordinator.
// Epoch carries the sender's installed view epoch so the coordinator can
// push a fresh view to an agent that fell behind (e.g. one it already
// evicted).
type Heartbeat struct {
	AgentID uint64
	Epoch   uint64
}

// AppendHeartbeat appends a heartbeat payload to dst.
func AppendHeartbeat(dst []byte, h *Heartbeat) []byte {
	w := Writer{buf: dst}
	w.U64(h.AgentID)
	w.U64(h.Epoch)
	return w.buf
}

// DecodeHeartbeat parses a heartbeat.
func DecodeHeartbeat(data []byte) (*Heartbeat, error) {
	r := NewReader(data)
	h := &Heartbeat{AgentID: r.U64(), Epoch: r.U64()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode heartbeat: %w", err)
	}
	return h, nil
}
