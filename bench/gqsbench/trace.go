package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Start and End are
// nanoseconds since the trace's origin; Parent is the ID of the span
// that caused it (-1 for a root); Req identifies the request the span
// belongs to: the shard of a campaign, the check of a replay, the
// operation of the large-graph workload.
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// Duration is the span's wall-clock length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// SelfTime is the span's duration minus the part of its interval that
// its children cover. Overlapping children count once, and a child's
// part outside the span is ignored.
func SelfTime(s Span, children []Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.Duration() - time.Duration(covered)
}

// Tracer keeps spans in memory until the benchmark writes them out. It
// is safe for concurrent use; a nil *Tracer records nothing, so untraced
// runs share the traced code path at the cost of a nil check.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewTracer starts a trace whose span times count from now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Add records a span that ran from start to end and returns its ID
// (-1 on a nil tracer).
func (t *Tracer) Add(name string, start, end time.Time, parent, req int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Name: name, Parent: parent, Req: req,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// Adopt makes parent the parent of the given spans; spans are often
// recorded before the span that caused them is closed.
func (t *Tracer) Adopt(parent int, ids []int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.spans[id].Parent = parent
	}
}

// SetEnd closes a span recorded before its end was known.
func (t *Tracer) SetEnd(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end.Sub(t.origin).Nanoseconds()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the durations of every span with the given name, in
// recording order.
func (t *Tracer) Durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s.Duration())
		}
	}
	return out
}

// Total is the summed duration of every span with the given name.
func (t *Tracer) Total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.Durations(name) {
		sum += d
	}
	return sum
}

// SelfTimes returns the self time of every span with the given name.
func (t *Tracer) SelfTimes(name string) []time.Duration {
	spans := t.Spans()
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, SelfTime(s, children[s.ID]))
		}
	}
	return out
}

// maxWrittenSpans caps the span file: the per-layer metrics are computed
// from every span in memory, but a file of millions of spans helps no
// reader.
const maxWrittenSpans = 200_000

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	spans := t.Spans()
	dropped := 0
	if len(spans) > maxWrittenSpans {
		dropped = len(spans) - maxWrittenSpans
		spans = spans[:maxWrittenSpans]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	doc := struct {
		OriginUnixNs int64  `json:"origin_unix_ns"`
		Dropped      int    `json:"dropped"`
		Spans        []Span `json:"spans"`
	}{t.origin.UnixNano(), dropped, spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
