package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Spans of one job or request share Group;
// Parent is the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  int64  `json:"group,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; the run writes them out when it ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID. A nil tracer records nothing.
func (t *tracer) begin(name string, parent, group int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its length.
func (t *tracer) end(id int64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.Dur()
}

// span times f as one span and returns its length.
func (t *tracer) span(name string, parent, group int64, f func()) time.Duration {
	id := t.begin(name, parent, group)
	f()
	return t.end(id)
}

// total sums the lengths of the spans called name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.Dur()
		}
	}
	return d
}

// durations returns the lengths of the spans called name, in order.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.Dur().Seconds())
		}
	}
	return out
}

// selfTime returns each span's duration minus the part of its interval
// that its children cover (children clipped to the parent, overlapping
// children counted once).
func selfTime(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curS, curE int64
		open := false
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if k.End < 0 || ke <= ks {
				continue
			}
			switch {
			case !open:
				curS, curE, open = ks, ke, true
			case ks <= curE:
				curE = max(curE, ke)
			default:
				covered += curE - curS
				curS, curE = ks, ke
			}
		}
		if open {
			covered += curE - curS
		}
		out[s.ID] = s.Dur() - time.Duration(covered)
	}
	return out
}

// selfTimeByName sums self time per span name, in seconds.
func selfTimeByName(spans []Span) map[string]float64 {
	self := selfTime(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if d, ok := self[s.ID]; ok {
			out[s.Name] += d.Seconds()
		}
	}
	return out
}
