package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one job or request
// share Req; Parent is the ID of the span that made the call (0 for a
// root). Start and End are offsets from the tracer's epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    string        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends; it is safe for
// concurrent use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *Tracer) begin(req string, parent int, name string) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *Tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span (one measured by the program, such
// as an executor wrapper's start and end) and returns its ID.
func (t *Tracer) record(req string, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *Tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the union of the intervals
// covers, each clipped to [lo, hi).
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, iv := range clipped {
		if iv[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// spanIndex answers per-span questions over one set of spans.
type spanIndex struct {
	spans    []Span
	children map[int][]int // parent ID -> indices into spans
}

func indexSpans(spans []Span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int][]int{}}
	for i, s := range spans {
		ix.children[s.Parent] = append(ix.children[s.Parent], i)
	}
	return ix
}

// childCover is the part of span s that its direct children cover.
func (ix *spanIndex) childCover(s Span) time.Duration {
	var ivs [][2]time.Duration
	for _, ci := range ix.children[s.ID] {
		c := ix.spans[ci]
		ivs = append(ivs, [2]time.Duration{c.Start, c.End})
	}
	return covered(s.Start, s.End, ivs)
}

// selfTime is the span's duration minus the part its children cover.
func (ix *spanIndex) selfTime(s Span) time.Duration { return s.Dur() - ix.childCover(s) }

// coverage is the share of span s its children cover (1 for a span of
// zero length).
func (ix *spanIndex) coverage(s Span) float64 {
	if s.Dur() <= 0 {
		return 1
	}
	return float64(ix.childCover(s)) / float64(s.Dur())
}

// sumByName totals the durations of the spans named name, and counts
// them.
func sumByName(spans []Span, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			d += s.Dur()
			n++
		}
	}
	return d, n
}

// durationsByName lists, in milliseconds, the durations of the spans
// named name.
func durationsByName(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.Dur()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfByName totals, per span name, the time spans spent outside their
// children, in seconds, divided by per: where a traced job's wall time
// went, layer by layer.
func selfByName(spans []Span, per int) map[string]float64 {
	ix := indexSpans(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += ix.selfTime(s).Seconds() / float64(per)
	}
	return out
}
