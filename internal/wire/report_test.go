package wire

import (
	"bytes"
	"errors"
	"testing"

	"elga/internal/trace"
)

type testSection struct {
	kind uint8
	body []byte
}

// testSections is one body of every section kind, in kind order.
func testSections() []testSection {
	return []testSection{
		{SecMetrics, AppendMetrics(nil, []Metric{{Name: "step_time", Value: 0.25}, {Name: "inbox_depth", Value: 3}})},
		{SecSpans, AppendSpanBatch(nil, &SpanBatch{Proc: "agent-3", Spans: []trace.SpanRecord{
			{TraceHi: 1, TraceLo: 2, SpanID: 3, RunID: 4, Step: 5, Name: "compute", Start: 6, Dur: 7},
		}})},
		{SecEvents, AppendEventBatch(nil, testEventRecords(), 5)},
		{SecMark, AppendCheckpointMark(nil, &CheckpointMark{
			Meta: CheckpointMeta{Key: "agent-0", AgentID: 3, Seq: 2, ViewEpoch: 4}, Bytes: 64})},
	}
}

// testReport is a report from agent 3 holding testSections.
func testReport() []byte {
	rep := AppendReportHeader(nil, 3)
	for _, s := range testSections() {
		rep = AppendSection(rep, s.kind, func(b []byte) []byte { return append(b, s.body...) })
	}
	return rep
}

// TestReportRoundTrip: a report of every section kind walks back the same
// bodies, under the sender its header names, and a section of a kind the
// walker does not know is stepped over.
func TestReportRoundTrip(t *testing.T) {
	want := testSections()
	var got []testSection
	walk := func(agentID uint64, kind uint8, body []byte) {
		if agentID != 3 {
			t.Errorf("section %d from agent %d, want 3", kind, agentID)
		}
		got = append(got, testSection{kind, body})
	}
	if err := WalkReport(testReport(), walk); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("walked %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].kind != want[i].kind || !bytes.Equal(got[i].body, want[i].body) {
			t.Errorf("section %d: kind %d, %d bytes; want kind %d, %d bytes",
				i, got[i].kind, len(got[i].body), want[i].kind, len(want[i].body))
		}
	}
	ms, err := DecodeMetrics(3, got[0].body)
	if err != nil || len(ms) != 2 || ms[1] != (Metric{AgentID: 3, Name: "inbox_depth", Value: 3}) {
		t.Fatalf("metrics %+v, err %v", ms, err)
	}

	rep := AppendReportHeader(nil, 3)
	for _, kind := range []uint8{0, SecMetrics, 0x7f, SecMark, 0xff} {
		rep = AppendSection(rep, kind, func(b []byte) []byte { return append(b, "body"...) })
	}
	got = got[:0]
	if err := WalkReport(rep, walk); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].kind != SecMetrics || got[1].kind != SecMark || string(got[1].body) != "body" {
		t.Fatalf("walked %+v, want the metric and mark sections only", got)
	}
}

// TestReportRejectsOverrun: a report cut anywhere but a section boundary,
// or a section whose length runs past the payload, is an error.
func TestReportRejectsOverrun(t *testing.T) {
	full := testReport()
	boundary := map[int]bool{8: true}
	at := 8
	for _, s := range testSections() {
		at += 5 + len(s.body)
		boundary[at] = true
	}
	for cut := 0; cut < len(full); cut++ {
		err := WalkReport(full[:cut], func(uint64, uint8, []byte) {})
		if (err == nil) != boundary[cut] {
			t.Fatalf("report cut to %d bytes: err %v", cut, err)
		}
	}
	long := append(AppendReportHeader(nil, 3), SecMetrics, 0xff, 0xff, 0xff, 0xff, 1, 2)
	if err := WalkReport(long, func(uint64, uint8, []byte) {
		t.Fatal("walked a section that overruns the payload")
	}); !errors.Is(err, ErrShort) {
		t.Fatalf("overrunning section: err %v, want ErrShort", err)
	}
}
