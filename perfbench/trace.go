package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// span is one timed call into a layer. Spans of one query share Query;
// Parent indexes the enclosing span (-1 for the query's root span).
type span struct {
	Name   string `json:"name"`
	Query  int32  `json:"query"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated inside the span, read with
	// runtime.ReadMemStats; recorded only for spans begun with mem set.
	Alloc uint64 `json:"alloc_bytes,omitempty"`

	mem       bool
	allocBase uint64
}

// recorder keeps spans in memory for one goroutine. A nil recorder is off:
// begin and end do nothing.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
	query int32
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

// begin opens a span under the innermost open one. With mem set the span
// also records the bytes allocated inside it; the ReadMemStats calls sit
// outside the span's clock readings.
func (r *recorder) begin(name string, mem bool) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	s := span{Name: name, Query: r.query, Parent: parent, mem: mem}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.allocBase = ms.TotalAlloc
	}
	s.Start = time.Since(r.t0).Nanoseconds()
	id := int32(len(r.spans))
	r.spans = append(r.spans, s)
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.End = time.Since(r.t0).Nanoseconds()
	if s.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Alloc = ms.TotalAlloc - s.allocBase
	}
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per query and span name, the summed self time in
// seconds: each span's duration minus the part its child spans cover.
func selfTimes(spans []span) map[int32]map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int32]map[string]float64{}
	for i, s := range spans {
		m := out[s.Query]
		if m == nil {
			m = map[string]float64{}
			out[s.Query] = m
		}
		m[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// timedBackend wraps a netsim.Backend, recording a "netsim.solve" span
// around every call and counting the calls, phases and flows simulated.
type timedBackend struct {
	inner                netsim.Backend
	rec                  *recorder
	calls, phases, flows int
}

func (t *timedBackend) Name() string { return t.inner.Name() }

func (t *timedBackend) Makespan(g *topo.Graph, ph netsim.Phases) (float64, error) {
	id := t.rec.begin("netsim.solve", false)
	ms, err := t.inner.Makespan(g, ph)
	t.rec.end(id)
	t.calls++
	t.count(ph)
	return ms, err
}

func (t *timedBackend) BatchMakespan(g *topo.Graph, steps []netsim.Phases) ([]float64, error) {
	id := t.rec.begin("netsim.solve", false)
	ms, err := t.inner.BatchMakespan(g, steps)
	t.rec.end(id)
	t.calls++
	for _, ph := range steps {
		t.count(ph)
	}
	return ms, err
}

func (t *timedBackend) count(ph netsim.Phases) {
	t.phases += len(ph)
	for _, fs := range ph {
		t.flows += len(fs)
	}
}
