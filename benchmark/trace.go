package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// ID of the span that caused it (0 for a root); the spans of one job or
// request form one tree.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until write. A nil *tracer is tracing
// off: begin and end reduce to a nil check, so the untraced run calls
// the same code path it would without the instrument.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.spans[id-1].StartUS = us(time.Since(t.epoch))
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := us(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfStat aggregates the spans of one name.
type selfStat struct {
	Count   int
	TotalUS float64
	// SelfUS is total duration minus the part the spans' children cover.
	SelfUS float64
}

// selfTimes returns per-name totals. A span's self time is its duration
// minus its children's; the benchmark never runs two children of one
// parent at once, so children cover disjoint parts of the parent.
func (t *tracer) selfTimes() map[string]selfStat {
	out := map[string]selfStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndUS - s.StartUS
	}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalUS += s.EndUS - s.StartUS
		st.SelfUS += s.EndUS - s.StartUS - child[s.ID]
		out[s.Name] = st
	}
	return out
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Spans    []span              `json:"spans"`
	Self     map[string]selfStat `json:"self_by_name"`
}

// write stores the spans as JSON, creating the directory.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfTimes()
	t.mu.Lock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, Self: self})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanHeader carries the client span's ID to the server side of an
// in-process request, so both spans land in one tree.
const spanHeader = "X-Bench-Span"

// traced wraps the service handler with a server-side span whose parent
// is the client span named in the request header. Only the traced run
// mounts it; the untraced run serves the bare handler.
func traced(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // absent header: a root span
		id := t.begin("serve.handler", parent)
		next.ServeHTTP(w, r)
		t.end(id)
	})
}
