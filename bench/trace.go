package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/binauto"
	"repro/internal/cluster"
	"repro/internal/core"
)

// Tracing from outside the program: every span comes from a wrapper this
// benchmark owns, placed at a public interface of a layer (cluster.Endpoint,
// core.Problem, the HTTP client, direct calls into serve and retrieval).
// Spans stay in memory and are written once, when the run ends.

// span is one timed interval. Spans of one job or request share Op; Parent is
// the id of the span that caused this one, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Actor  int    `json:"actor"` // rank, or client connection
	Op     int    `json:"op"`    // job or request id
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer hands out one recorder per goroutine and merges them at the end.
// Recorders are created before the goroutines that fill them start, and merged
// after they have stopped, so the tracer itself needs no lock.
type tracer struct {
	t0   time.Time
	recs []*recorder
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// recorder returns a new recorder for one goroutine (one rank, one client).
func (t *tracer) recorder(actor, op int) *recorder {
	r := &recorder{t0: t.t0, actor: actor, op: op}
	t.recs = append(t.recs, r)
	return r
}

// spans merges every recorder's spans, renumbering ids globally.
func (t *tracer) spans() []span {
	var out []span
	for _, r := range t.recs {
		off := len(out)
		for _, s := range r.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// recorder collects the spans of a single goroutine, so it needs no lock. A
// nil recorder records nothing, which is how untraced code paths share the
// instrumented call sites.
type recorder struct {
	t0    time.Time
	actor int
	op    int
	spans []span
	open  []int // stack of open span ids
}

func (r *recorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// beginAt opens a span at time t under the innermost open span.
func (r *recorder) beginAt(name string, t time.Time) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: r.parent(), Name: name,
		Actor: r.actor, Op: r.op, Start: int64(t.Sub(r.t0))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) begin(name string) int { return r.beginAt(name, time.Now()) }

// endAt closes span id (and anything left open inside it) at time t.
func (r *recorder) endAt(id int, t time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(t.Sub(r.t0))
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		if top == id {
			break
		}
	}
}

func (r *recorder) end(id int) { r.endAt(id, time.Now()) }

// leaf records a finished span under the innermost open span.
func (r *recorder) leaf(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: r.parent(), Name: name,
		Actor: r.actor, Op: r.op, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
}

// selfSeconds is each span's duration minus the time its children cover.
// Children of one span come from one goroutine and never overlap, so their
// durations add.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// writeSpans stores a traced run's spans as JSON under dir.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}

// payloadKind classifies a fabric message by the exported type of its
// payload; the engine's private tag constants are never consulted.
func payloadKind(p any) string {
	switch p.(type) {
	case nil:
		return "signal"
	case *core.Token:
		return "Token"
	case core.WStartMsg:
		return "WStartMsg"
	case core.WAckMsg:
		return "WAckMsg"
	case core.ZDoneMsg:
		return "ZDoneMsg"
	case core.FixMsg:
		return "FixMsg"
	default:
		return fmt.Sprintf("%T", p)
	}
}

// tracedEndpoint interposes on one rank's transport endpoint, the same way
// the chaos transport does: one span per Deliver (encode plus enqueue or
// socket write) and one per blocking Next. On a worker rank it also derives
// the W phase — WStartMsg received until WAckMsg delivered — whose self time
// is the rank's W-step compute.
type tracedEndpoint struct {
	cluster.Endpoint
	rec    *recorder
	wphase int // open W-phase span, -1 when none
}

func newTracedEndpoint(inner cluster.Endpoint, rec *recorder) *tracedEndpoint {
	return &tracedEndpoint{Endpoint: inner, rec: rec, wphase: -1}
}

func (e *tracedEndpoint) Deliver(to int, m cluster.Message) {
	t0 := time.Now()
	e.Endpoint.Deliver(to, m)
	t1 := time.Now()
	e.rec.leaf("deliver:"+payloadKind(m.Payload), t0, t1)
	if _, ack := m.Payload.(core.WAckMsg); ack && e.wphase >= 0 {
		e.rec.endAt(e.wphase, t1)
		e.wphase = -1
	}
}

func (e *tracedEndpoint) Next(timeout time.Duration) (cluster.Message, error) {
	t0 := time.Now()
	m, err := e.Endpoint.Next(timeout)
	t1 := time.Now()
	e.rec.leaf("next:"+payloadKind(m.Payload), t0, t1)
	if _, start := m.Payload.(core.WStartMsg); start && err == nil {
		e.wphase = e.rec.beginAt("wphase", t1)
	}
	return m, err
}

// tracedProblem wraps the real BA problem of one rank: spans for ZStep and
// OnIterationStart, everything else promoted unchanged.
type tracedProblem struct {
	*binauto.ParMACProblem
	rec *recorder
}

func (p *tracedProblem) ZStep(shard int, model []core.Submodel) int {
	id := p.rec.begin("zstep")
	defer p.rec.end(id)
	return p.ParMACProblem.ZStep(shard, model)
}

func (p *tracedProblem) OnIterationStart(iter int) {
	id := p.rec.begin("iterstart")
	defer p.rec.end(id)
	p.ParMACProblem.OnIterationStart(iter)
}
