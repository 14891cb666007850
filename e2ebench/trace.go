package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program's public functions.
// Spans of one query share Query; Parent is the index of the span
// that caused this one (-1 for a root).
type span struct {
	Name    string
	Parent  int
	Query   int
	Shard   int // -1 when the layer is not sharded
	Attempt int // copy attempt, -1 for non-copy spans
	Replica int // replica the copy was routed to, -1 if none
	Worker  int // sweep worker, -1 if none
	Hold    time.Duration
	Start   time.Time
	End     time.Time
	OK      bool
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out once, at exit.
// A nil *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin records an open span and returns its index.
func (t *tracer) begin(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// finish closes span i at the current time.
func (t *tracer) finish(i int, ok bool) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans[i].End = end
	t.spans[i].OK = ok
	t.mu.Unlock()
}

// snapshot returns the spans recorded from index from on.
func (t *tracer) snapshot(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[from:]...)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes every span as one JSON object per line, times in
// microseconds since the tracer started.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	us := func(at time.Time) float64 { return float64(at.Sub(t.epoch)) / 1e3 }
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if err := enc.Encode(map[string]any{
			"id": i, "parent": s.Parent, "name": s.Name, "query": s.Query,
			"shard": s.Shard, "attempt": s.Attempt, "replica": s.Replica, "worker": s.Worker,
			"start_us": us(s.Start), "end_us": us(s.End), "ok": s.OK,
		}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// children indexes spans by parent, relative to a snapshot taken from
// index base of the tracer.
func children(spans []span, base int) map[int][]int {
	out := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= base {
			out[s.Parent-base] = append(out[s.Parent-base], i)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that
// its child spans cover.
func selfTime(spans []span, parent int, kids []int) time.Duration {
	p := spans[parent]
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return p.dur() - covered
}
