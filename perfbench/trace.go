package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one sweep point share Trace; Parent is the enclosing span's ID (0 for
// a root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call. It is used from
// the benchmark's single driving goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// seconds sums the durations of the spans called name, counting only
// spans begun after the first from.
func (t *tracer) seconds(name string, from int) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as a JSON array, creating the directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
