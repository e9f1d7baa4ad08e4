package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"elga/internal/events"
	"elga/internal/trace"
)

// FuzzDecodeFrame drives every control-plane decoder that parses
// network-supplied payloads: byte 0 selects the decoder (the frame type
// a real packet would carry), the rest is the payload. The invariant
// under test is the transport's survival property — decoders return
// errors for malformed input, they never panic or over-allocate, because
// one crafted frame must not take down a coordinator.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with well-formed payloads of each framed shape so the fuzzer
	// starts from structurally valid inputs and mutates inward.
	rec := events.Record{
		Seq: 7, Time: 1700000000, Level: events.Warn, Kind: events.KindHealth,
		Proc: "agent-3", TraceHi: 1, TraceLo: 2, RunID: 4, Step: 9, NFields: 2,
	}
	rec.Fields[0] = events.U("agent", 3)
	rec.Fields[1] = events.S("cause", "compute-skew")
	f.Add(seedReport(SecEvents, AppendEventBatch(nil, []events.Record{rec}, 5)))
	f.Add(seedFrame(TStatusReply, AppendStatusReply(nil, &StatusReply{
		Epoch: 3, BatchID: 2, Vertices: 100, Running: true, RunID: 1, Step: 6,
		Agents: []AgentHealth{{
			AgentID: 3, Addr: "inproc-7", Status: HealthStraggler,
			Score: 2.5, Cause: "compute-skew", StepSeconds: 0.2,
		}},
		Timeline: []events.Record{rec},
	})))
	f.Add(seedReport(SecMark, AppendManifest(nil, &Manifest{
		Meta: CheckpointMeta{Key: "agent-0", AgentID: 1, Seq: 3, ViewEpoch: 2, RunID: 1, Step: 4},
		Segments: []SegmentRef{
			{Kind: 1, Name: "01-abc", Length: 64, CRC: 0xdeadbeef},
			{Kind: 7, Name: "07-def", Length: 1 << 20, CRC: 1},
		},
	})))
	// The other SecMark shapes, span batches, status requests and views.
	mark := CheckpointMark{Meta: CheckpointMeta{Key: "agent-0", AgentID: 1, Seq: 3, ViewEpoch: 2, RunID: 1, Step: 4}, Bytes: 512}
	f.Add(seedReport(SecMark, AppendCheckpointMark(nil, &mark)))
	view := AppendView(nil, &View{Epoch: 2, BatchID: 1, N: 100, Agents: []AgentInfo{{ID: 1, Addr: "inproc-1"}}, Sketch: []byte{1, 2, 3}})
	f.Add(seedReport(SecMark, AppendCoordState(nil, &CoordState{
		View: view, NextAgentID: 2, NextRunID: 1, Marks: []CheckpointMark{mark},
		Events: []events.Record{rec}, EventSeq: 7,
	})))
	f.Add(seedReport(SecSpans, AppendSpanBatch(nil, &SpanBatch{Proc: "agent-3", Spans: []trace.SpanRecord{{
		TraceHi: 1, TraceLo: 2, SpanID: 5, Parent: 4, RunID: 1, Step: 6, Flags: 1,
		Name: "superstep", Start: 1700000000, Dur: 250,
	}}})))
	f.Add(seedFrame(TStatus, AppendStatusReq(nil, 64)))
	f.Add(seedFrame(TDirUpdate, view))
	f.Add(seedReport(SecMetrics, AppendMetrics(nil, []Metric{{Name: "step_time", Value: 0.25}})))
	f.Add(seedFrame(TReady, AppendReady(nil, &Ready{AgentID: 3, Step: 7, Masters: 9, PhaseSeconds: 0.25})))
	// The hub record lists: one record (the single-record payload) and three.
	p0, u0 := testPartial(0), testUpdate(0)
	f.Add(seedFrame(TReplicaPartial, AppendReplicaPartial(nil, &p0)))
	f.Add(seedFrame(TValueUpdate, AppendValueUpdate(nil, &u0)))
	var pb, ub []byte
	for i := 0; i < 3; i++ {
		p, u := testPartial(i), testUpdate(i)
		pb, ub = AppendReplicaPartial(pb, &p), AppendValueUpdate(ub, &u)
	}
	f.Add(seedFrame(TReplicaPartial, pb))
	f.Add(seedFrame(TValueUpdate, ub))
	// A report of every section kind, one with a kind this build does not
	// know between two it does, and one whose last section overruns it.
	full := testReport()
	f.Add(seedFrame(TReport, full))
	unknown := AppendSection(AppendReportHeader(nil, 3), SecMetrics, func(b []byte) []byte { return AppendMetrics(b, nil) })
	unknown = AppendSection(unknown, 0x7f, func(b []byte) []byte { return append(b, "later"...) })
	f.Add(seedFrame(TReport, AppendSection(unknown, SecMark, func(b []byte) []byte { return b })))
	f.Add(seedFrame(TReport, full[:len(full)-1]))
	// Edge batches: changes, states and runs; and one whose run overruns it.
	edges := EncodeEdgeBatch(testRunBatch())
	f.Add(seedFrame(TEdges, edges))
	f.Add(seedFrame(TEdges, edges[:len(edges)-5]))
	// Vertex messages: a well-formed batch, a truncated one, a forged count.
	msgs := AppendVertexMsgBatch(nil, &VertexMsgBatch{Step: 4, Msgs: []VertexMsg{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}})
	f.Add(seedFrame(TVertexMsgs, msgs))
	f.Add(seedFrame(TVertexMsgs, msgs[:len(msgs)-7]))
	f.Add(seedFrame(TVertexMsgs, binary.LittleEndian.AppendUint32(msgs[:5:5], 1<<26)))
	// Run statistics: a well-formed reply.
	f.Add(seedFrame(TRunReply, AppendRunStats(nil, &RunStats{RunID: 2, Steps: 3, Converged: true, Wall: 9,
		StepTimes: []time.Duration{1, 2, 3}, Recomputed: true})))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ, payload := Type(data[0]), data[1:]
		// Each decoder must return (result, error) without panicking on
		// arbitrary bytes. Results are discarded — only survival matters.
		switch typ {
		case TStatusReply:
			_, _ = DecodeStatusReply(payload)
		case TStatus:
			_, _ = DecodeStatusReq(payload)
		case TReport:
			err := WalkReport(payload, func(agentID uint64, kind uint8, body []byte) {
				switch kind {
				case SecMetrics:
					_, _ = DecodeMetrics(agentID, body)
				case SecSpans:
					_, _ = DecodeSpanBatch(body)
				case SecEvents:
					_, _, _ = DecodeEventBatch(body)
				case SecMark:
					_, _ = DecodeManifest(body)
					_, _ = DecodeCheckpointMark(body)
					_, _ = DecodeCoordState(body)
				default:
					t.Fatalf("walked a section of unknown kind %d", kind)
				}
			})
			if err == nil && len(payload) < 8 {
				t.Fatalf("%d-byte report walked without error", len(payload))
			}
		case TEdges:
			// What a run decodes to is what AddRun requires.
			if b, err := DecodeEdgeBatch(payload); err == nil {
				for _, r := range b.Runs {
					for i := 1; i < len(r.Nbrs); i++ {
						if r.Nbrs[i] <= r.Nbrs[i-1] {
							t.Fatalf("run of %d decoded out of order: %v", r.Key, r.Nbrs)
						}
					}
				}
				// Every section decoded is the one the payload counts.
				enc := EncodeEdgeBatch(b)
				if len(enc) > len(payload) {
					t.Fatalf("%d bytes decoded to a %d-byte batch", len(payload), len(enc))
				}
				want := slices.Clone(payload[:len(enc)])
				want[8] = boolByte(want[8] != 0)
				for i, at := 0, 9+4+changeSize*len(b.Changes)+4; i < len(b.States); i++ {
					want[at+stateSize*i+16] &= stateActive | stateNoValue
				}
				if !bytes.Equal(enc, want) {
					t.Fatalf("%d changes, %d states, %d runs do not re-encode to the payload", len(b.Changes), len(b.States), len(b.Runs))
				}
			}
		case TVertexMsgs:
			// The records decoded are the ones the payload counts and holds.
			var b VertexMsgBatch
			if err := DecodeVertexMsgBatchInto(&b, payload); err == nil {
				n := 9 + vertexMsgSize*len(b.Msgs)
				if n > len(payload) {
					t.Fatalf("%d bytes decoded to %d messages", len(payload), len(b.Msgs))
				}
				want := slices.Clone(payload[:n])
				want[4] = boolByte(want[4] != 0)
				if !bytes.Equal(AppendVertexMsgBatch(nil, &b), want) {
					t.Fatalf("%d messages do not re-encode to the payload", len(b.Msgs))
				}
			}
		case TRunReply:
			// The step times decoded are the ones the payload counts and holds.
			if st, err := DecodeRunStats(payload); err == nil {
				n := 22 + 8*len(st.StepTimes)
				if n > len(payload) {
					t.Fatalf("%d bytes decoded to %d step times", len(payload), len(st.StepTimes))
				}
				want := slices.Clone(payload[:n])
				want[8], want[n-1] = boolByte(want[8] != 0), boolByte(want[n-1] != 0)
				if !bytes.Equal(AppendRunStats(nil, st), want) {
					t.Fatalf("%d step times do not re-encode to the payload", len(st.StepTimes))
				}
			}
		case TReady:
			_, _ = DecodeReady(payload)
		case TDirUpdate:
			_, _ = DecodeView(payload)
		case TReplicaPartial:
			// A record list is all of the payload or none of it.
			seen := 0
			err := walkReplicaPartials(payload, func(ReplicaPartial) { seen++ })
			if (err == nil) != (seen > 0) || seen*replicaPartialSize != len(payload) && err == nil {
				t.Fatalf("%d bytes: %d partials walked, err %v", len(payload), seen, err)
			}
		case TValueUpdate:
			seen := 0
			err := walkValueUpdates(payload, func(ValueUpdate) { seen++ })
			if (err == nil) != (seen > 0) || seen*valueUpdateSize != len(payload) && err == nil {
				t.Fatalf("%d bytes: %d updates walked, err %v", len(payload), seen, err)
			}
		default:
			// Unmapped selector bytes still exercise the broadest parsers.
			_, _, _ = DecodeEventBatch(payload)
			_, _ = DecodeStatusReply(payload)
		}
	})
}

// seedFrame prefixes a payload with its selector byte.
func seedFrame(typ Type, payload []byte) []byte {
	return append([]byte{byte(typ)}, payload...)
}

// seedReport is a TReport seed from agent 3 holding one section.
func seedReport(kind uint8, body []byte) []byte {
	return seedFrame(TReport, AppendSection(AppendReportHeader(nil, 3), kind, func(b []byte) []byte {
		return append(b, body...)
	}))
}
