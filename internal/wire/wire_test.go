package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"elga/internal/graph"
)

func TestTypeString(t *testing.T) {
	if TEdges.String() != "edges" || TAck.String() != "ack" {
		t.Error("type names wrong")
	}
	if !strings.Contains(Type(200).String(), "200") {
		t.Error("unknown type name should include the number")
	}
	if TInvalid.Valid() || Type(250).Valid() {
		t.Error("invalid types reported valid")
	}
	if !TQuery.Valid() {
		t.Error("TQuery should be valid")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{Type: TEdges, Req: 42, From: "inproc://agent-1", Payload: []byte{1, 2, 3}}
	data, err := MarshalPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPacket(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.Req != p.Req || got.From != p.From || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestPacketEmptyPayload(t *testing.T) {
	p := &Packet{Type: TPing, From: "x"}
	data, err := MarshalPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPacket(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Error("payload should be empty")
	}
}

func TestMarshalRejectsInvalidType(t *testing.T) {
	if _, err := MarshalPacket(&Packet{Type: TInvalid}); err == nil {
		t.Error("TInvalid accepted")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	good, _ := MarshalPacket(&Packet{Type: TPing, From: "abc", Payload: []byte{9}})
	cases := [][]byte{
		nil,
		good[:5],
		good[:len(good)-1],
		append(append([]byte{}, good...), 7),
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // type 0
	}
	for i, c := range cases {
		if _, err := UnmarshalPacket(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWriterReaderPrimitives(t *testing.T) {
	var w Writer
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.F64(3.25)
	w.Str("hello")
	w.Blob([]byte{1, 2})
	r := NewReader(w.Bytes())
	if r.U8() != 7 || !r.Bool() || r.Bool() {
		t.Fatal("u8/bool")
	}
	if r.U32() != 0xdeadbeef || r.U64() != 1<<60 {
		t.Fatal("ints")
	}
	if r.F64() != 3.25 {
		t.Fatal("f64")
	}
	if r.Str() != "hello" {
		t.Fatal("str")
	}
	if !bytes.Equal(r.Blob(), []byte{1, 2}) {
		t.Fatal("blob")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // short
	if r.Err() == nil {
		t.Fatal("short read not detected")
	}
	if r.U8() != 0 || r.Str() != "" || r.Blob() != nil {
		t.Error("reads after error should return zero values")
	}
}

func TestViewRoundTrip(t *testing.T) {
	v := &View{
		Epoch: 5, BatchID: 9, N: 1000,
		Agents: []AgentInfo{{1, "a"}, {2, "b"}},
		Sketch: []byte{1, 2, 3, 4},
	}
	got, err := DecodeView(EncodeView(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 5 || got.BatchID != 9 || got.N != 1000 || len(got.Agents) != 2 ||
		got.Agents[1].Addr != "b" || !bytes.Equal(got.Sketch, v.Sketch) {
		t.Fatalf("view mismatch: %+v", got)
	}
}

// TestViewEncodesFixedLayout pins the view's byte layout: header, agents,
// sketch, and nothing after the sketch.
func TestViewEncodesFixedLayout(t *testing.T) {
	v := &View{Epoch: 3, BatchID: 1, N: 50, Agents: []AgentInfo{{1, "a"}}, Sketch: []byte{1, 2, 3}}
	var w Writer
	w.U64(v.Epoch)
	w.U64(v.BatchID)
	w.U64(v.N)
	w.U32(uint32(len(v.Agents)))
	for _, a := range v.Agents {
		w.U64(a.ID)
		w.Str(a.Addr)
	}
	w.Blob(v.Sketch)
	if enc := EncodeView(v); !bytes.Equal(enc, w.buf) {
		t.Fatalf("view encoding diverged from its layout:\n got %x\nwant %x", enc, w.buf)
	}
}

func TestViewEmptyAgents(t *testing.T) {
	got, err := DecodeView(EncodeView(&View{Epoch: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Agents) != 0 {
		t.Error("agents should be empty")
	}
}

func TestEdgeBatchRoundTrip(t *testing.T) {
	b := &EdgeBatch{
		Epoch: 3, Migration: true,
		Changes: []EdgeChange{
			{Action: graph.Insert, Src: 1, Dst: 2, Dir: graph.Out},
			{Action: graph.Delete, Src: 3, Dst: 4, Dir: graph.In},
		},
	}
	b.States = []VertexState{{Vertex: 9, State: 101}}
	got, err := DecodeEdgeBatch(EncodeEdgeBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Migration || got.Epoch != 3 || len(got.Changes) != 2 {
		t.Fatalf("%+v", got)
	}
	if got.Changes[0] != b.Changes[0] || got.Changes[1] != b.Changes[1] {
		t.Fatalf("changes mismatch: %+v", got.Changes)
	}
	if len(got.States) != 1 || got.States[0] != b.States[0] {
		t.Fatalf("states mismatch: %+v", got.States)
	}
}

// testRunBatch is an edge batch with changes, states and runs, a hub-sized
// one among them.
func testRunBatch() *EdgeBatch {
	hub := EdgeRun{Key: 1 << 40, Dir: graph.Out}
	for w := graph.VertexID(3); w < 3000; w += 3 {
		hub.Nbrs = append(hub.Nbrs, w)
	}
	return &EdgeBatch{
		Epoch: 9, Migration: true,
		Changes: []EdgeChange{{Action: graph.Delete, Src: 3, Dst: 4, Dir: graph.In}},
		States:  []VertexState{{Vertex: 7, State: 70, Active: true}, {Vertex: 1 << 40, State: 1}},
		Runs: []EdgeRun{
			{Key: 7, Dir: graph.In, Nbrs: []graph.VertexID{1, 2, 1 << 50}},
			hub,
			{Key: 8, Dir: graph.Out, Nbrs: []graph.VertexID{0}},
		},
	}
}

func TestEdgeBatchRunsRoundTrip(t *testing.T) {
	b := testRunBatch()
	data := EncodeEdgeBatch(b)
	runBytes, copies := 0, 0
	for _, r := range b.Runs {
		runBytes += runHeaderSize + 8*len(r.Nbrs)
		copies += len(r.Nbrs)
	}
	// A batch without runs still carries the section's count.
	if withoutRuns := len(EncodeEdgeBatch(&EdgeBatch{Epoch: 9, Changes: b.Changes, States: b.States})); len(data) != withoutRuns+runBytes {
		t.Fatalf("%d bytes; the %d runs of %d copies should add %d", len(data), len(b.Runs), copies, runBytes)
	}
	// Decode twice into one batch: the second reuses what the first grew.
	var got EdgeBatch
	for i := 0; i < 2; i++ {
		if err := DecodeEdgeBatchInto(&got, data); err != nil {
			t.Fatal(err)
		}
	}
	if got.Epoch != 9 || !got.Migration || !slices.Equal(got.Changes, b.Changes) || !slices.Equal(got.States, b.States) || len(got.Runs) != len(b.Runs) {
		t.Fatalf("decoded %+v", got)
	}
	for i, r := range got.Runs {
		if r.Key != b.Runs[i].Key || r.Dir != b.Runs[i].Dir || !slices.Equal(r.Nbrs, b.Runs[i].Nbrs) {
			t.Fatalf("run %d: %+v, want %+v", i, r, b.Runs[i])
		}
	}
	// The runs' lists do not overlap: growing one leaves the next alone.
	got.Runs[0].Nbrs = append(got.Runs[0].Nbrs, 99)
	if got.Runs[1].Nbrs[0] != 3 {
		t.Fatal("a decoded run's list runs into the next one's")
	}
}

// A batch without runs — every stream batch — decodes with none, also into
// a batch that had some.
func TestEdgeBatchWithoutRunsDecodesNone(t *testing.T) {
	var got EdgeBatch
	if err := DecodeEdgeBatchInto(&got, EncodeEdgeBatch(testRunBatch())); err != nil || len(got.Runs) == 0 {
		t.Fatalf("runs %d, %v", len(got.Runs), err)
	}
	b := &EdgeBatch{Epoch: 2, Changes: []EdgeChange{{Action: graph.Insert, Src: 1, Dst: 2}}}
	if err := DecodeEdgeBatchInto(&got, EncodeEdgeBatch(b)); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 0 || len(got.Changes) != 1 || len(got.States) != 0 {
		t.Fatalf("a runless batch decoded with %d runs, %d changes, %d states", len(got.Runs), len(got.Changes), len(got.States))
	}
}

// A run count or length the payload cannot hold, a run that is not inserts
// and one that is not strictly ascending are errors, never a panic or an
// allocation the payload does not pay for. So is every cut inside the run
// section, its count included.
func TestEdgeBatchRejectsBadRuns(t *testing.T) {
	full := EncodeEdgeBatch(testRunBatch())
	b := testRunBatch()
	b.Runs = nil
	section := len(EncodeEdgeBatch(b)) - 4 // where the run count starts
	for n := section; n < len(full); n++ {
		if _, err := DecodeEdgeBatch(full[:n]); !errors.Is(err, ErrShort) {
			t.Fatalf("cut at %d of %d: %v, want ErrShort", n, len(full), err)
		}
	}
	patch := func(off int, v uint32) []byte {
		data := slices.Clone(full)
		binary.LittleEndian.PutUint32(data[off:], v)
		return data
	}
	first := section + 4 // the first run: key, tag, length, neighbours
	for name, data := range map[string][]byte{
		"run count":  patch(section, 1<<31),
		"run length": patch(first+9, 1<<30),
		"a delete":   append(append(slices.Clone(full[:first+8]), uint8(graph.Delete)<<1|1), full[first+9:]...),
		"descending": patch(first+13, 5), // 5, 2, ...
	} {
		if _, err := DecodeEdgeBatch(data); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestVertexMsgBatchRoundTrip(t *testing.T) {
	b := &VertexMsgBatch{Step: 7, Async: true, Msgs: []VertexMsg{{1, 2, 3}, {4, 5, 6}}}
	got, err := DecodeVertexMsgBatch(AppendVertexMsgBatch(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || !got.Async || len(got.Msgs) != 2 || got.Msgs[1] != b.Msgs[1] {
		t.Fatalf("%+v", got)
	}
}

func TestReplicaRegisterRoundTrip(t *testing.T) {
	for _, rr := range []*ReplicaRegister{{Vertex: 77, AgentID: 5}, {Vertex: 77, AgentID: 5, Deregister: true}} {
		got, err := DecodeReplicaRegister(AppendReplicaRegister(nil, rr))
		if err != nil {
			t.Fatal(err)
		}
		if *got != *rr {
			t.Fatalf("%+v", got)
		}
	}
}

func TestReadyRoundTrip(t *testing.T) {
	m := &Ready{AgentID: 1, Step: 2, Phase: 1, ActiveNext: 3, Residual: 0.5,
		SplitWork: true, Masters: 10, Sent: 100, Received: 99, PhaseSeconds: 0.25, Deleted: true}
	got, err := DecodeReady(AppendReady(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("%+v", got)
	}
}

func TestAdvanceRoundTrip(t *testing.T) {
	a := &Advance{Step: 4, Phase: 2, N: 500, RunID: 8}
	got, err := DecodeAdvance(AppendAdvance(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("%+v", got)
	}
}

func TestAlgoStartRoundTrip(t *testing.T) {
	s := &AlgoStart{RunID: 1, Algo: "pagerank", Async: false, MaxSteps: 20,
		Epsilon: 1e-8, FromScratch: true, Source: 42}
	got, err := DecodeAlgoStart(AppendAlgoStart(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *s {
		t.Fatalf("%+v", got)
	}
}

func TestAlgoDoneRoundTrip(t *testing.T) {
	d := &AlgoDone{RunID: 9, Steps: 13, Converged: true}
	got, err := DecodeAlgoDone(AppendAlgoDone(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *d {
		t.Fatalf("%+v", got)
	}
}

func TestQueryRoundTrips(t *testing.T) {
	q, err := DecodeQuery(AppendQuery(nil, &Query{Vertex: 123}))
	if err != nil || q.Vertex != 123 {
		t.Fatalf("query: %v %+v", err, q)
	}
	qr, err := DecodeQueryReply(AppendQueryReply(nil, &QueryReply{Found: true, State: 9, Step: 3}))
	if err != nil || !qr.Found || qr.State != 9 || qr.Step != 3 {
		t.Fatalf("reply: %v %+v", err, qr)
	}
}

func TestMetricRoundTrip(t *testing.T) {
	ms, err := DecodeMetrics(1, AppendMetrics(nil, []Metric{{Name: "qps", Value: 2.5}}))
	if err != nil || len(ms) != 1 || ms[0] != (Metric{AgentID: 1, Name: "qps", Value: 2.5}) {
		t.Fatalf("%v %+v", err, ms)
	}
}

func TestJoinLeaveRoundTrips(t *testing.T) {
	j, err := DecodeJoin(AppendJoin(nil, &Join{Addr: "tcp://x:1"}))
	if err != nil || j.Addr != "tcp://x:1" {
		t.Fatalf("join: %v %+v", err, j)
	}
	jr, err := DecodeJoinReply(AppendJoinReply(nil, &JoinReply{
		AgentID: 7,
		View:    &View{Epoch: 2, Agents: []AgentInfo{{7, "tcp://x:1"}}},
	}))
	if err != nil || jr.AgentID != 7 || jr.View.Epoch != 2 || len(jr.View.Agents) != 1 {
		t.Fatalf("join reply: %v %+v", err, jr)
	}
	l, err := DecodeLeave(AppendLeave(nil, &Leave{AgentID: 3}))
	if err != nil || l.AgentID != 3 {
		t.Fatalf("leave: %v %+v", err, l)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := AppendReady(nil, &Ready{AgentID: 1})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeReady(full[:n]); err == nil {
			t.Fatalf("truncated ready at %d accepted", n)
		}
	}
	fullR := AppendReplicaRegister(nil, &ReplicaRegister{Vertex: 77, AgentID: 5})
	for n := 0; n < len(fullR); n++ {
		if _, err := DecodeReplicaRegister(fullR[:n]); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated replica register at %d: %v", n, err)
		}
	}
	fullV := EncodeView(&View{Agents: []AgentInfo{{1, "a"}}})
	for n := 0; n < len(fullV); n++ {
		if _, err := DecodeView(fullV[:n]); err == nil {
			t.Fatalf("truncated view at %d accepted", n)
		}
	}
	fullS := AppendStatusReq(nil, 25)
	for n := 0; n < len(fullS); n++ {
		if _, err := DecodeStatusReq(fullS[:n]); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated status request at %d: %v", n, err)
		}
	}
}

// Property: packet marshalling round-trips arbitrary payloads.
func TestPacketProperty(t *testing.T) {
	f := func(req uint32, from string, payload []byte) bool {
		if len(from) > 1<<16-1 {
			from = from[:1<<16-1]
		}
		p := &Packet{Type: TVertexMsgs, Req: req, From: from, Payload: payload}
		data, err := MarshalPacket(p)
		if err != nil {
			return false
		}
		got, err := UnmarshalPacket(data)
		if err != nil {
			return false
		}
		return got.Req == req && got.From == from && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeVertexMsgBatch(b *testing.B) {
	// The send-path encode: append into a pooled frame, release after
	// the (simulated) wire write recycles it.
	batch := &VertexMsgBatch{Step: 1, Msgs: make([]VertexMsg, 256)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := AppendVertexMsgBatch(GetFrame(8192), batch)
		ReleaseFrame(buf)
	}
}

func BenchmarkDecodeVertexMsgBatch(b *testing.B) {
	// The receive-path decode: into a reused scratch batch, as the agent
	// event loop does.
	data := AppendVertexMsgBatch(nil, &VertexMsgBatch{Step: 1, Msgs: make([]VertexMsg, 256)})
	var scratch VertexMsgBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeVertexMsgBatchInto(&scratch, data); err != nil {
			b.Fatal(err)
		}
	}
}

var benchBytes []byte

// TestDecodersNeverPanicOnGarbage feeds pseudo-random bytes to every
// decoder; they must return errors, never panic or over-allocate.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeView(b); return err },
		func(b []byte) error { _, err := DecodeEdgeBatch(b); return err },
		func(b []byte) error { _, err := DecodeVertexMsgBatch(b); return err },
		func(b []byte) error { return walkReplicaPartials(b, func(ReplicaPartial) {}) },
		func(b []byte) error { return walkValueUpdates(b, func(ValueUpdate) {}) },
		func(b []byte) error { _, err := DecodeReplicaRegister(b); return err },
		func(b []byte) error { _, err := DecodeReady(b); return err },
		func(b []byte) error { _, err := DecodeAdvance(b); return err },
		func(b []byte) error { _, err := DecodeAlgoStart(b); return err },
		func(b []byte) error { _, err := DecodeAlgoDone(b); return err },
		func(b []byte) error { _, err := DecodeQuery(b); return err },
		func(b []byte) error { _, err := DecodeQueryReply(b); return err },
		func(b []byte) error { _, err := DecodeMetrics(1, b); return err },
		func(b []byte) error { return WalkReport(b, func(uint64, uint8, []byte) {}) },
		func(b []byte) error { _, err := DecodeJoin(b); return err },
		func(b []byte) error { _, err := DecodeJoinReply(b); return err },
		func(b []byte) error { _, err := DecodeLeave(b); return err },
		func(b []byte) error { _, err := DecodeRunStats(b); return err },
		func(b []byte) error { _, err := DecodeStringList(b); return err },
		func(b []byte) error { _, err := UnmarshalPacket(b); return err },
	}
	// Deterministic xorshift garbage.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for size := 0; size <= 64; size++ {
		for trial := 0; trial < 32; trial++ {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = next()
			}
			for di, dec := range decoders {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("decoder %d panicked on %d bytes: %v", di, size, r)
						}
					}()
					_ = dec(buf)
				}()
			}
		}
	}
}

// A lazy ack is an ack: every type whose ack may wait is an acked push, and
// none of the types whose acks drain an ack group or a Flush is among them.
func TestLazyAckTypes(t *testing.T) {
	for typ := Type(0); typ < typeCount; typ++ {
		if LazyAck(typ) && !AckedPush(typ) {
			t.Errorf("%s: lazily acked but not an acked push", typ)
		}
	}
	for _, typ := range []Type{TVertexMsgs, TReplicaPartial, TValueUpdate, TEdges,
		TReplicaRegister, TSketchDelta, TSubscribe, TLeave} {
		if LazyAck(typ) {
			t.Errorf("%s: its sender waits on the ack, it must not be held", typ)
		}
	}
}
