package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// maxSpans bounds the spans kept in memory; later spans still feed the
// per-layer durations and are counted as dropped in the trace file.
const maxSpans = 1 << 20

// span is one timed call into a layer, recorded from the benchmark's side
// of the call: its name, start and end (ns since the run began) and the
// index of the span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory and writes them out when the run ends.
// A nil *tracer records nothing, so untraced rounds pay one nil check per
// call site.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	durs    map[string][]float64 // span name -> durations in seconds
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: make(map[string][]float64)}
}

// spanRef is an open span: end closes it.
type spanRef struct {
	id    int32 // index in spans, -1 when not kept
	name  string
	start int64
}

// begin opens a span under parent (-1 for a root).
func (t *tracer) begin(name string, parent int32) spanRef {
	if t == nil {
		return spanRef{id: -1}
	}
	s := spanRef{id: -1, name: name, start: time.Since(t.t0).Nanoseconds()}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: s.start, End: -1})
		s.id = int32(len(t.spans) - 1)
	} else {
		t.dropped++
	}
	return s
}

// end closes s and returns its duration.
func (t *tracer) end(s spanRef) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	if s.id >= 0 {
		t.spans[s.id].End = now
	}
	d := time.Duration(now - s.start)
	t.durs[s.name] = append(t.durs[s.name], d.Seconds())
	return d
}

// medianOf returns the median duration of the spans named name, in
// seconds (0 when the layer was not exercised).
func (t *tracer) medianOf(name string) float64 {
	if t == nil {
		return 0
	}
	return median(t.durs[name])
}

// write dumps every kept span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"spans\":%d,\"dropped\":%d}\n", len(t.spans), t.dropped)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
