// Command perfbench is spmap's benchmark. It runs one workload in
// this process, times calls into the spmap layers from outside, checks
// the outputs outside the timed region, and prints one JSON result line:
//
//	perfbench --workload map-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is repeated untraced and traced (half the time
// each) and the result carries the per-layer metrics, derived from
// spans recorded around each layer call, plus the tracing overhead.
// The workloads and metrics are described in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// size scales a workload's inputs: full for measurement, tiny for the
// benchmark's own smoke tests.
type size int

const (
	full size = iota
	tiny
)

// config is what every workload receives.
type config struct {
	seed int64
	size size
}

// workload is one benchmark traffic mix. setup builds its inputs and
// warm state from the seed alone; it is called several times per run
// so that set-up time can be reported as a median.
type workload struct {
	name string
	// tailPct is the fixed tail percentile of latency_tail_ms: the
	// highest percentile of tailGrid that keeps ten or more samples
	// beyond it at the benchmark's run length.
	tailPct float64
	// sloMS is the latency limit of within_slo_pct.
	sloMS float64
	setup func(cfg config) (instance, error)
}

// instance is a set-up workload, ready to run.
type instance interface {
	// run performs the workload's operations for d (closed loops run at
	// least minOps operations) and returns what it observed. A nil
	// tracer runs untraced.
	run(d time.Duration, minOps int, tr *tracer) (*runStats, error)
	// check verifies the outputs of a run outside the timed region and
	// returns the number of operations whose output was wrong.
	check(rs *runStats) (int, error)
	close()
}

// runStats is one run's observations.
type runStats struct {
	// busy is the time operations were in flight: the whole run for a
	// closed loop, the union of request lifetimes for an open one (whose
	// completions per elapsed second would only echo the offered rate).
	busy time.Duration
	// lat holds one latency per completed operation, in ms.
	lat []float64
	// completed counts completed operations when some give no latency
	// sample (0: one per sample).
	completed int
	attempted int
	failed    int
	// improvementPct is the mean makespan improvement over the all-CPU
	// baseline of the operations' results.
	improvementPct float64
	// layer holds per-layer values the workload measured itself
	// (counts, ratios, probe times); spans are in the tracer.
	layer map[string]float64
	// cost holds each operation's cost in ms, in operation order, for
	// the tracing overhead: for a traced run, with probe spans
	// subtracted. Every run starts at the same operation, so the first n
	// costs of an untraced and a traced run cover the same operations.
	cost []float64
	// out holds workload-specific outputs for check.
	out any
}

var workloads = []workload{
	{name: "map-paper", tailPct: 90, sloMS: 250, setup: setupMapPaper},
	{name: "race-search", tailPct: 95, sloMS: 80, setup: setupRace},
	{name: "serve-bursty", tailPct: serveTail, sloMS: serveSLOMS, setup: setupServe},
	{name: "replay-fleet", tailPct: 99, sloMS: 40, setup: setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 7

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (map-paper, race-search, serve-bursty, replay-fleet)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured run length in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	cfg := config{seed: *seed}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
	}
	res, err := bench(w, cfg, time.Duration(*seconds*float64(time.Second)), *traced == 1, *spans, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench sets the workload up, runs it and assembles the result.
func bench(w workload, cfg config, d time.Duration, traced bool, spansPath string, stderr io.Writer) (*result, error) {
	probeBefore := hostProbe()

	var inst instance
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		// Each set-up starts from a collected heap, so that garbage left
		// by the previous one is not charged to it.
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	// A traced run first runs untraced for half the time, for the
	// tracing overhead only; the traced run itself is full length so its
	// tails rest on as many samples as the end-to-end ones, and it is
	// the run the correctness gate checks.
	minOps := opsForTail(w.tailPct)
	var plain *runStats
	var tr *tracer
	if traced {
		var err error
		if plain, err = inst.run(d/2, 0, nil); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	rs, err := inst.run(d, minOps, tr)
	if err != nil {
		return nil, err
	}
	// Peak RSS only grows, so reading it before the correctness gate
	// (which maps or serves more) gives the run's own peak.
	peakMB := peakRSSMB()
	runEnd := time.Now()
	wrong, err := inst.check(rs)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	checkS := time.Since(runEnd).Seconds()
	probeAfter := hostProbe()
	fmt.Fprintf(stderr, "perfbench: %s seed=%d host.probe_ms before=%.3f after=%.3f setup_s=%.3f check_s=%.3f\n",
		w.name, cfg.seed, probeBefore, probeAfter, median(setups), checkS)

	res := &result{Attempted: rs.attempted, Failed: rs.failed + wrong, Correct: wrong == 0, Metrics: map[string]metric{}}
	beyond := beyondPercentile(len(rs.lat), w.tailPct)
	if beyond < 10 {
		return nil, fmt.Errorf("only %d latency samples beyond p%g (need 10)", beyond, w.tailPct)
	}
	fmt.Fprintf(stderr, "perfbench: %s latency_tail_ms is p%g over %d samples (%d beyond)\n",
		w.name, w.tailPct, len(rs.lat), beyond)

	if !traced {
		completed := rs.completed
		if completed == 0 {
			completed = len(rs.lat)
		}
		within := 0
		for _, l := range rs.lat {
			if l <= w.sloMS {
				within++
			}
		}
		values := map[string]float64{
			"setup_s":         median(setups),
			"ops_per_s":       float64(completed) / rs.busy.Seconds(),
			"latency_p50_ms":  percentile(rs.lat, 50),
			"latency_tail_ms": percentile(rs.lat, w.tailPct),
			"improvement_pct": rs.improvementPct,
			// A failed operation counts as a miss.
			"within_slo_pct": 100 * float64(within) / float64(len(rs.lat)+rs.failed),
			"peak_rss_mb":    peakMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		return res, nil
	}

	layer := tr.layerMetrics()
	for k, v := range rs.layer {
		layer[k] = v
	}
	layer["host.probe_ms"] = (probeBefore + probeAfter) / 2
	if n := min(len(plain.cost), len(rs.cost)); n > 0 {
		layer["trace.overhead_pct"] = 100 * (median(rs.cost[:n])/median(plain.cost[:n]) - 1)
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{layer[m.name], m.unit}
	}
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"improvement_pct", "%"},
	{"within_slo_pct", "%"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists every per-layer metric, in BENCHMARK.json order. A
// traced run reports all of them; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"sp.decompose_ms", "ms"},
	{"sp.subgraphs", "count"},
	{"decomp.map_ms", "ms"},
	{"decomp.evals", "count"},
	{"eval.compile_ms", "ms"},
	{"eval.makespan_us", "us"},
	{"eval.inc_move_us", "us"},
	{"eval.cache_hit_ratio", "ratio"},
	{"portfolio.race_ms", "ms"},
	{"portfolio.evals_per_s", "1/s"},
	{"portfolio.rounds", "count"},
	{"portfolio.budget_moved", "count"},
	{"bounds.certify_ms", "ms"},
	{"bounds.gap_pct", "%"},
	{"service.queue_us.p50", "us"},
	{"service.queue_us.tail", "us"},
	{"service.batch_us.p50", "us"},
	{"service.batch_us.tail", "us"},
	{"service.eval_us.p50", "us"},
	{"service.eval_us.tail", "us"},
	{"service.respond_us.p50", "us"},
	{"service.respond_us.tail", "us"},
	{"service.unattributed_us.p50", "us"},
	{"service.unattributed_us.tail", "us"},
	{"service.transport_us", "us"},
	{"batcher.ops_per_flush", "count"},
	{"batcher.cross_flush_ratio", "ratio"},
	{"online.step_ms", "ms"},
	{"online.rebuild_ratio", "ratio"},
	{"online.repair_evals", "count"},
	{"fleet.checkpoint_ms", "ms"},
	{"fleet.checkpoint_kb", "KiB"},
	{"fleet.resume_ms", "ms"},
	{"loadgen.lag_max_ms", "ms"},
	{"host.probe_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meanOf returns the arithmetic mean (0 for no values).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// gomaxprocs is the CPU count the workloads size their parallelism to.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
