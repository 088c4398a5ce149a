package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Req; Parent indexes the span that caused this one (-1 for an
// operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer records spans in memory; they are written out once the run
// has ended. A nil *tracer records nothing, so untraced runs call the
// same code with tracing off. Safe for concurrent use.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string][]float64{}} }

// count records one observation of a per-operation counter; the layer
// metric of that name is the mean of its observations.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// sums returns the totals of the named counters.
func (t *tracer) sums(names ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(names))
	for i, n := range names {
		for _, v := range t.counts[n] {
			out[i] += v
		}
	}
	return out
}

// add records a span with explicit bounds and returns its id (-1 when
// tracing is off).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

// begin opens a span ending at the matching end call.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// durationNS returns the length of span id (0 when tracing is off).
func (t *tracer) durationNS(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End - t.spans[id].Start
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its children cover. Overlapping children
// are counted once, and child time outside the parent is ignored.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64 = 0, s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerMetrics derives the per-layer metrics the tracer holds: the mean
// of each counter, and the mean self time of every span name in the
// unit its metric name ends with (_ms or _us).
func (t *tracer) layerMetrics() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	sum := map[string]int64{}
	count := map[string]int{}
	for i, s := range t.spans {
		sum[s.Name] += self[i]
		count[s.Name]++
	}
	out := map[string]float64{}
	for name, vs := range t.counts {
		out[name] = meanOf(vs)
	}
	for _, m := range perLayer {
		for _, unit := range []struct {
			suffix string
			ns     float64
		}{{"_ms", 1e6}, {"_us", 1e3}} {
			name, ok := strings.CutSuffix(m.name, unit.suffix)
			if ok && count[name] > 0 {
				out[m.name] = float64(sum[name]) / float64(count[name]) / unit.ns
			}
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
