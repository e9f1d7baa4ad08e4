package wire

import (
	"testing"

	"elga/internal/events"
)

func testEventRecords() []events.Record {
	evict := events.Record{
		Seq: 11, Time: 1_700_000_000_000_000_001, Level: events.Warn,
		Kind: events.KindEvict, Proc: "coord",
		TraceHi: 0xa1, TraceLo: 0xb2, RunID: 4, Step: 9,
	}
	evict.Fields[0] = events.U("agent", 7)
	evict.Fields[1] = events.S("addr", "inproc-3")
	evict.NFields = 2
	retry := events.Record{
		Seq: 12, Time: 1_700_000_000_000_000_002,
		Kind: events.KindRetry, Proc: "client",
	}
	retry.Fields[0] = events.S("op", "run")
	retry.Fields[1] = events.U("attempt", 2)
	retry.NFields = 2
	return []events.Record{evict, retry}
}

func TestEventBatchRoundTrip(t *testing.T) {
	in := testEventRecords()
	out, dropped, err := DecodeEventBatch(AppendEventBatch(nil, in, 5))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 5 {
		t.Fatalf("dropped = %d, want 5", dropped)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestEventBatchEmpty(t *testing.T) {
	out, dropped, err := DecodeEventBatch(AppendEventBatch(nil, nil, 3))
	if err != nil || len(out) != 0 || dropped != 3 {
		t.Fatalf("empty batch: evs=%v dropped=%d err=%v", out, dropped, err)
	}
}

func TestEventBatchRejectsTruncation(t *testing.T) {
	buf := AppendEventBatch(nil, testEventRecords(), 1)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeEventBatch(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestStatusReqRoundTrip(t *testing.T) {
	n, err := DecodeStatusReq(AppendStatusReq(nil, 25))
	if err != nil || n != 25 {
		t.Fatalf("status req: n=%d err=%v", n, err)
	}
}

func TestStatusReplyRoundTrip(t *testing.T) {
	in := &StatusReply{
		Epoch: 6, BatchID: 3, Vertices: 120,
		RunID: 9, Step: 4, Running: true,
		EventSeq: 77, EventsDropped: 2,
		Agents: []AgentHealth{
			{
				AgentID: 1, Addr: "inproc-2", Status: HealthStraggler, Score: 2.4,
				Cause: "inbox-backlog", StepSeconds: 0.08, CombineSeconds: 0.01,
				BarrierSeconds: 0.002, InboxDepth: 140, QueueDepth: 12,
				Retransmits: 3, Events: 9, HeartbeatAgeNanos: 5_000_000,
			},
			{AgentID: 2, Addr: "inproc-3", Status: HealthHealthy, Score: 1.0},
		},
		Timeline: testEventRecords(),
	}
	out, err := DecodeStatusReply(AppendStatusReply(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != in.Epoch || out.BatchID != in.BatchID || out.Vertices != in.Vertices ||
		out.RunID != in.RunID || out.Step != in.Step || out.Running != in.Running ||
		out.EventSeq != in.EventSeq || out.EventsDropped != in.EventsDropped {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Agents) != 2 || out.Agents[0] != in.Agents[0] || out.Agents[1] != in.Agents[1] {
		t.Fatalf("agents mismatch: %+v", out.Agents)
	}
	if len(out.Timeline) != 2 || out.Timeline[0] != in.Timeline[0] || out.Timeline[1] != in.Timeline[1] {
		t.Fatalf("timeline mismatch: %+v", out.Timeline)
	}
}

func TestStatusReplyRejectsTruncation(t *testing.T) {
	buf := AppendStatusReply(nil, &StatusReply{
		Epoch:  1,
		Agents: []AgentHealth{{AgentID: 1, Addr: "a"}},
		Timeline: []events.Record{
			{Seq: 1, Kind: events.KindJoin, Proc: "coord"},
		},
	})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeStatusReply(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestHealthName(t *testing.T) {
	for st, want := range map[uint8]string{
		HealthHealthy: "healthy", HealthLagging: "lagging",
		HealthStraggler: "straggler", HealthSuspect: "suspect",
		99: "health(99)",
	} {
		if got := HealthName(st); got != want {
			t.Fatalf("HealthName(%d) = %q, want %q", st, got, want)
		}
	}
}
