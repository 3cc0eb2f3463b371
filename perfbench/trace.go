package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"time"

	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/workloads"
)

// tracer records spans around the benchmark's calls into each layer. Phase
// spans (generation, build, preload, run) are kept one by one; the
// per-request spans of the timing decorators are folded into per-name
// totals as they close, so memory stays bounded however long a run is.
// Everything stays in memory until write.
type tracer struct {
	t0    time.Time
	spans []span
	open  []openSpan
	agg   map[string]*spanTotal
}

type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanTotal struct {
	Count  uint64 `json:"count"`
	Total  int64  `json:"total_ns"`
	Self   int64  `json:"self_ns"` // Total minus the time child spans cover
	Latest int64  `json:"latest_ns"`
}

type openSpan struct {
	name  string
	start int64
	child int64
	idx   int // index into spans, or -1 for a folded per-request span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*spanTotal{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a phase span, kept individually.
func (t *tracer) begin(name string) int {
	parent := -1
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i].idx >= 0 {
			parent = t.open[i].idx
			break
		}
	}
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	t.open = append(t.open, openSpan{name: name, start: now, idx: len(t.spans) - 1})
	return len(t.open) - 1
}

// enter opens a per-request span, folded into its name's totals on close.
func (t *tracer) enter(name string) int {
	t.open = append(t.open, openSpan{name: name, start: t.now(), idx: -1})
	return len(t.open) - 1
}

// end closes the span that begin or enter returned, which must be the
// innermost open span.
func (t *tracer) end(tok int) {
	now := t.now()
	o := t.open[tok]
	t.open = t.open[:tok]
	dur := now - o.start
	if o.idx >= 0 {
		t.spans[o.idx].End = now
	}
	a := t.agg[o.name]
	if a == nil {
		a = &spanTotal{}
		t.agg[o.name] = a
	}
	a.Count++
	a.Total += dur
	a.Self += dur - o.child
	a.Latest = dur
	if tok > 0 {
		t.open[tok-1].child += dur
	}
}

// latest returns the duration of the last closed span of name, in seconds
// (0 if none closed since reset).
func (t *tracer) latest(name string) float64 {
	if a := t.agg[name]; a != nil {
		return float64(a.Latest) / 1e9
	}
	return 0
}

// mean returns the mean duration of name's spans in nanoseconds.
func (t *tracer) mean(name string) float64 {
	if a := t.agg[name]; a != nil && a.Count > 0 {
		return float64(a.Total) / float64(a.Count)
	}
	return 0
}

// resetTotals forgets every folded total, so the next reads cover only
// what closes afterwards. Phase spans are kept.
func (t *tracer) resetTotals() { t.agg = map[string]*spanTotal{} }

// write saves the phase spans and per-name totals as JSON.
func (t *tracer) write(path string, totals map[string]*spanTotal) error {
	b, err := json.MarshalIndent(struct {
		Spans  []span                `json:"spans"`
		Totals map[string]*spanTotal `json:"totals"`
	}{t.spans, totals}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// The timing decorators below wrap what the benchmark hands to loadgen.

type timedGen struct {
	workloads.Generator
	t *tracer
}

func (g timedGen) Next(r *rand.Rand) workloads.Request {
	s := g.t.enter("workloads.next")
	req := g.Generator.Next(r)
	g.t.end(s)
	return req
}

type timedClient struct {
	loadgen.Client
	t *tracer
}

func (c timedClient) BuildStep(id uint64, req workloads.Request, step int) []byte {
	s := c.t.enter("loadgen.client_build")
	p := c.Client.BuildStep(id, req, step)
	c.t.end(s)
	return p
}

func (c timedClient) ResponseID(p []byte) (uint64, error) {
	s := c.t.enter("loadgen.client_parse")
	id, err := c.Client.ResponseID(p)
	c.t.end(s)
	return id, err
}

type timedEndpoint struct {
	loadgen.Endpoint
	t *tracer
}

func (e timedEndpoint) SendContiguous(payload []byte, sim uint64) error {
	s := e.t.enter("netstack.client_send")
	err := e.Endpoint.SendContiguous(payload, sim)
	e.t.end(s)
	return err
}

func (e timedEndpoint) SetRecvHandler(fn func(payload *mem.Buf)) {
	e.Endpoint.SetRecvHandler(func(p *mem.Buf) {
		s := e.t.enter("loadgen.client_recv")
		fn(p)
		e.t.end(s)
	})
}
