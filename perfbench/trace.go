package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one call the benchmark made into a layer: its name is
// "<layer>.<operation>", and parent is the id of the span that caused it
// (0 for a root).
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Detail string           `json:"detail,omitempty"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs share the traced code path at no cost.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []*span

	// current is the innermost span the benchmark's sequential code has
	// open. Calls the program makes back into the benchmark (the timing
	// cache backend, from the sweep's worker goroutines) parent their
	// spans under it, because they cannot see the caller's stack.
	current atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent. A negative parent means "under the
// current sequential span".
func (r *recorder) begin(name string, parent int) *span {
	if r == nil {
		return nil
	}
	if parent < 0 {
		parent = int(r.current.Load())
	}
	s := &span{Parent: parent, Name: name, Start: time.Since(r.t0)}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// end closes s and records attrs on it.
func (r *recorder) end(s *span, attrs map[string]int64) {
	if r == nil {
		return
	}
	end := time.Since(r.t0)
	r.mu.Lock()
	s.End = end
	s.Attrs = attrs
	r.mu.Unlock()
}

// enter opens a span under the current one and makes it current; the
// returned function closes it and restores the previous current span.
func (r *recorder) enter(name string) (*span, func(attrs map[string]int64)) {
	if r == nil {
		return nil, func(map[string]int64) {}
	}
	s := r.begin(name, -1)
	prev := r.current.Swap(int64(s.ID))
	return s, func(attrs map[string]int64) {
		r.end(s, attrs)
		r.current.Store(prev)
	}
}

// id returns s's id, or 0 for the nil span of an untraced run.
func (s *span) id() int {
	if s == nil {
		return 0
	}
	return s.ID
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, len(r.spans))
	for i, s := range r.spans {
		out[i] = *s
	}
	return out
}

// writeJSON writes every span as one JSON document.
func (r *recorder) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.snapshot())
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (the sweep's workers run in parallel), so the covered part is the length
// of the union of the children's intervals, clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	type interval struct{ lo, hi time.Duration }
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered time.Duration
		lo, hi := time.Duration(-1), time.Duration(-1)
		for _, iv := range ivs {
			iv.lo, iv.hi = max(iv.lo, s.Start), min(iv.hi, s.End)
			if iv.hi <= iv.lo {
				continue
			}
			if iv.lo > hi {
				covered += hi - lo
				lo, hi = iv.lo, iv.hi
				continue
			}
			hi = max(hi, iv.hi)
		}
		covered += hi - lo
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}
