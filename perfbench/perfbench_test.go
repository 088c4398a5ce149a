package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spmap/internal/fleet"
)

// tailFor returns the highest percentile of tailGrid with at least ten
// of n samples beyond it (0 when even the median has fewer): the rule
// each workload's fixed tailPct was chosen by.
func tailFor(n int) float64 {
	best := 0.0
	for _, p := range tailGrid {
		if beyondPercentile(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {49, 75}, {50, 80}, {99, 80}, {100, 90},
		{200, 95}, {500, 98}, {999, 98}, {1000, 99}, {100000, 99},
	} {
		if got := tailFor(c.n); got != c.want {
			t.Errorf("tailFor(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailFor(c.n); p > 0 && beyondPercentile(c.n, p) < 10 {
			t.Errorf("tailFor(%d) = p%v leaves %d samples beyond", c.n, p, beyondPercentile(c.n, p))
		}
	}
	for _, p := range tailGrid {
		n := opsForTail(p)
		if beyondPercentile(n, p) != 10 || beyondPercentile(n-1, p) >= 10 {
			t.Errorf("opsForTail(%v) = %d is not the smallest count with ten beyond", p, n)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := beyondPercentile(len(xs), 90); got != 10 {
		t.Errorf("samples beyond p90 of 100 = %d, want 10", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: [10,50) covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // only [90,100) lies inside root
		{Name: "d", Start: 25, End: 28, Parent: 2},
		{Name: "other", Start: 0, End: 7, Parent: -1},
	}
	want := []int64{50, 20, 27, 30, 3, 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer()
	tr.spans = spans
	tr.count("decomp.evals", 4)
	tr.count("decomp.evals", 6)
	tr.spans = append(tr.spans,
		span{Name: "decomp.map", Start: 0, End: 2e6, Parent: -1},
		span{Name: "decomp.map", Start: 0, End: 4e6, Parent: -1},
		span{Name: "eval.makespan", Start: 1e6, End: 1e6 + 5000, Parent: 6})
	m := tr.layerMetrics()
	// The first decomp.map span loses its 5 µs eval.makespan child.
	if got, want := m["decomp.map_ms"], (2e6-5000+4e6)/2/1e6; math.Abs(got-want) > 1e-9 {
		t.Errorf("decomp.map_ms = %v, want %v", got, want)
	}
	if got := m["eval.makespan_us"]; got != 5 {
		t.Errorf("eval.makespan_us = %v, want 5", got)
	}
	if got := m["decomp.evals"]; got != 5 {
		t.Errorf("decomp.evals = %v, want 5", got)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := arrivals(7, 20, serveRate)
	if b := arrivals(7, 20, serveRate); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := arrivals(8, 20, serveRate); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, x := range a {
		if x < 0 || x >= 20 || (i > 0 && x <= a[i-1]) {
			t.Fatalf("offset %d = %v out of order or outside [0, 20)", i, x)
		}
	}
	// Over a long horizon the thinned process keeps the curve's mean
	// rate, and bursts carry more arrivals than lulls.
	long := arrivals(9, 4000, serveRate)
	if rate := float64(len(long)) / 4000; math.Abs(rate/serveRate.mean()-1) > 0.03 {
		t.Errorf("mean rate %v, want about %v", rate, serveRate.mean())
	}
	var peak, lull int
	for _, x := range long {
		switch phase := math.Mod(x, serveRate.period) / serveRate.period; {
		case phase < 0.1 || phase > 0.9:
			peak++
		case phase > 0.4 && phase < 0.6:
			lull++
		}
	}
	if peak < 2*lull {
		t.Errorf("burst windows got %d arrivals, lull windows %d", peak, lull)
	}
}

// TestServeRequests pins the serving request set to the seed and the
// run index, with request ids unique across the runs of one process
// (the Timing records are matched to requests by id).
func TestServeRequests(t *testing.T) {
	inst, err := setupServe(config{seed: 4, size: tiny})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serve)
	a, schedA, err := s.requests(0, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, schedB, _ := s.requests(0, time.Second, 0)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(schedA, schedB) {
		t.Fatal("one seed and run gave two request sets")
	}
	c, _, _ := s.requests(1, time.Second, 0)
	ids := map[string]bool{}
	for _, rq := range append(a, c...) {
		var hdr struct{ ID string }
		if err := json.Unmarshal(rq.body, &hdr); err != nil {
			t.Fatal(err)
		}
		if ids[hdr.ID] {
			t.Fatalf("request id %q sent twice", hdr.ID)
		}
		ids[hdr.ID] = true
	}
}

// smoke runs workload name at tiny size and returns its result.
func smoke(t *testing.T, w workload, seed int64, traced bool) *result {
	t.Helper()
	res, err := bench(w, config{seed: seed, size: tiny}, 200*time.Millisecond, traced,
		filepath.Join(t.TempDir(), "spans.jsonl"), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs every workload at tiny size through the correctness
// gate: untraced with one seed, traced with a second.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w, 1, false)
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("got %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				// A slow build (the race detector) may miss every
				// latency limit; any other metric is positive.
				valid := got.Value > 0 || (m.name == "within_slo_pct" && got.Value == 0)
				if !ok || !valid || got.Unit != m.unit {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}

			res = smoke(t, w, 2, true)
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
		})
	}
}

// TestGateCatchesWrongOutput corrupts one output of each workload and
// requires its correctness gate to count it.
func TestGateCatchesWrongOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	corrupt := map[string]func(rs *runStats){
		"map-paper":   func(rs *runStats) { rs.out.([]mapOut)[0].makespan *= 1.5 },
		"race-search": func(rs *runStats) { rs.out.([]raceOut)[0].st.Makespan *= 1.5 },
		"serve-bursty": func(rs *runStats) {
			o := &rs.out.(serveRun).outs[0]
			o.body = bytes.Replace(o.body, []byte(`"instance"`), []byte(`"Instance"`), 1)
		},
		"replay-fleet": func(rs *runStats) {
			r := &rs.out.([][]fleet.Result)[0][fleetInterruptEvery-1]
			r.Stats.Events[0].Makespan *= 1.5
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(config{seed: 3, size: tiny})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			rs, err := inst.run(10*time.Millisecond, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			corrupt[w.name](rs)
			if wrong, err := inst.check(rs); err != nil || wrong < 1 {
				t.Fatalf("check = %d, %v; want the corrupted output counted", wrong, err)
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "map-paper", "--trace", "2"},
		{"--workload", "map-paper", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}
