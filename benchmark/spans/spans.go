// Package spans is the traced run's in-memory span store. Spans are
// recorded from the benchmark's own files, around its calls into each
// layer, kept in memory while the run lasts and written once at exit.
package spans

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed interval. Spans of one operation share OpID; Parent
// is the span that caused this one (0 for a root).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	ID     int64  `json:"span_id"`
	Parent int64  `json:"parent_id"`
	OpID   int64  `json:"op_id"`
}

// Recorder collects spans. The zero value is not usable; a nil *Recorder
// records nothing, so call sites need no tracing-on checks.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	ops   int64
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NextOp allocates an operation identifier.
func (r *Recorder) NextOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// Add records a span and returns its identifier.
func (r *Recorder) Add(name string, start, end time.Time, parent, op int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{
		Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		ID: id, Parent: parent, OpID: op,
	})
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans to path as {"header": header, "spans": [...]},
// one span per line.
func (r *Recorder) WriteFile(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	hdr, err := json.Marshal(header)
	if err != nil {
		f.Close()
		return err
	}
	w.WriteString(`{"header": `)
	w.Write(hdr)
	w.WriteString(",\n\"spans\": [\n")
	all := r.Spans()
	for i, sp := range all {
		line, _ := json.Marshal(sp) // a struct of strings and integers cannot fail
		w.Write(line)
		if i < len(all)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
