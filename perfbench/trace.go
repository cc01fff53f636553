package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory; write puts them on
// disk once the run is over. A nil *tracer is the untraced run: every
// method is a no-op on it, so workload code calls it unconditionally.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Trace groups the spans of one
// request or one bulk cycle; Parent is the span that made the call.
type span struct {
	ID      uint64             `json:"id"`
	Parent  uint64             `json:"parent,omitempty"`
	Trace   uint64             `json:"trace"`
	Name    string             `json:"name"`
	StartUS float64            `json:"start_us"`
	EndUS   float64            `json:"end_us"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is a started span; end records it.
type active struct {
	tr         *tracer
	id, parent uint64
	trace      uint64
	name       string
	start      time.Time
	counts     map[string]float64
}

func (t *tracer) start(name string, parent *active, trace uint64) *active {
	if t == nil {
		return nil
	}
	a := &active{tr: t, id: t.ids.Add(1), trace: trace, name: name, start: time.Now()}
	if parent != nil {
		a.parent = parent.id
	}
	return a
}

// count attaches a count measured at this span's boundary.
func (a *active) count(name string, v float64) {
	if a == nil {
		return
	}
	if a.counts == nil {
		a.counts = map[string]float64{}
	}
	a.counts[name] = v
}

func (a *active) end() {
	if a == nil {
		return
	}
	now := time.Now()
	s := span{
		ID: a.id, Parent: a.parent, Trace: a.trace, Name: a.name,
		StartUS: us(a.start.Sub(a.tr.epoch)), EndUS: us(now.Sub(a.tr.epoch)),
		Counts: a.counts,
	}
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, s)
	a.tr.mu.Unlock()
}

// oneIf is a boolean as a span count.
func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// ms is a span's duration in milliseconds.
func (s span) ms() float64 { return (s.EndUS - s.StartUS) / 1000 }

// durations returns the durations in milliseconds of the spans with
// the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.ms())
	}
	return out
}

// byTrace returns the span with the given name in each trace.
func (t *tracer) byTrace(name string) map[uint64]span {
	out := map[uint64]span{}
	for _, s := range t.named(name) {
		out[s.Trace] = s
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
