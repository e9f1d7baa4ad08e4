package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op (the ID of the operation's root span); Parent is the
// span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records the benchmark's own spans in memory; they are written out
// once, when the run ends. A nil *spans is the untraced pass: every method
// is a no-op, so end-to-end numbers are measured with spans off.
type spans struct {
	epoch time.Time
	all   []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// start opens a span under parent (-1 opens an operation) and returns its ID.
func (s *spans) start(name string, parent int) int {
	if s == nil {
		return -1
	}
	id := len(s.all)
	op := id
	if parent >= 0 {
		op = s.all[parent].Op
	}
	s.all = append(s.all, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(s.epoch))})
	return id
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.all[id].End = int64(time.Since(s.epoch))
}

// durationsMs returns the duration of every finished span called name.
func (s *spans) durationsMs(name string) []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, sp := range s.all {
		if sp.Name == name && sp.End > 0 {
			out = append(out, float64(sp.End-sp.Start)/1e6)
		}
	}
	return out
}

func (s *spans) write(path string) error {
	data, err := json.Marshal(s.all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
