package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every registered experiment at Quick scale
// and sanity-checks the reports — the end-to-end guarantee that
// `elga-bench all` works.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range All {
		id := e.ID
		t.Run(id, func(t *testing.T) {
			rep, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if rep.ID != id {
				t.Errorf("report ID %q != %q", rep.ID, id)
			}
			if len(rep.Rows) == 0 {
				t.Errorf("%s produced no rows", id)
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Header) {
					t.Errorf("%s: row width %d != header %d (%v)", id, len(row), len(rep.Header), row)
				}
			}
			txt := rep.String()
			if !strings.Contains(txt, rep.Title) {
				t.Errorf("%s: text rendering missing title", id)
			}
			md := rep.Markdown()
			if !strings.Contains(md, "| --- |") {
				t.Errorf("%s: markdown rendering broken", id)
			}
		})
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	r.AddNote("n %d", 5)
	if !strings.Contains(r.String(), "note: n 5") {
		t.Error("note missing")
	}
	if !strings.Contains(r.Markdown(), "| 1 | 2 |") {
		t.Error("markdown row missing")
	}
}
