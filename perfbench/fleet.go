package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spmap/internal/fleet"
	"spmap/internal/gen"
	"spmap/internal/online"
	"spmap/internal/platform"
)

// replay-fleet: online event streams (device failures and
// degradations, subgraph arrivals and departures) replayed by fleet.Run
// with Shards=nproc and a checkpoint store, closed loop. One operation
// is one applied event. A fixed subset of the streams is interrupted
// after a checkpoint and resumed from it by a second fleet.Run. This is
// the only workload that runs internal/online (kernel rebuilds, warm
// repair) and internal/fleet (checkpoint writes beside resume reads);
// every rebuilt kernel starts a fresh evaluation cache.

const (
	fleetStreams   = 64
	fleetTasks     = 40
	fleetEvents    = 8
	fleetSchedules = 20
	fleetBudget    = 400
	fleetCadence   = 2
	// Every fleetInterruptEvery-th stream is interrupted once its cursor
	// reaches fleetInterruptAt, right after the checkpoint written there.
	fleetInterruptEvery = 4
	fleetInterruptAt    = 4
)

type replayFleet struct {
	streams []fleet.Stream
}

func setupFleet(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	p := platform.Reference()
	n, count := fleetTasks, fleetStreams
	if cfg.size == tiny {
		n, count = 10, 4
	}
	f := &replayFleet{}
	for i := 0; i < count; i++ {
		g := gen.SeriesParallel(rng, n, gen.DefaultAttr())
		sc := gen.NewScenario(rng, gen.ScenarioOptions{
			Events: fleetEvents, Devices: p.NumDevices(), DefaultDevice: p.Default,
		})
		f.streams = append(f.streams, fleet.Stream{
			ID: fmt.Sprintf("s%02d", i), Graph: g, Platform: p, Scenario: sc,
			Options: online.Options{
				Schedules: fleetSchedules, Seed: rng.Int63(), Workers: 1, RepairBudget: fleetBudget,
			},
		})
	}
	// Warm-up, untimed: two streams without a store, so that the first
	// measured events do not pay for the runtime's start-up.
	if _, err := fleet.Run(f.streams[:2], fleet.Options{Shards: gomaxprocs()}); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *replayFleet) close() {}

// interrupted reports whether stream i belongs to the resumed subset.
func interrupted(i int) bool { return i%fleetInterruptEvery == fleetInterruptEvery-1 }

// fleetClock turns the store and interrupt callbacks into per-event
// latencies: a resumed stream's first event is timed from its
// checkpoint lookup (the first thing a shard does for a stream), every
// later event from the previous event's callback. It also records the
// checkpoint writes and, in traced runs, the spans.
type fleetClock struct {
	tr   *tracer
	pass int64
	mu   sync.Mutex
	last map[string]time.Time
	// saves holds each stream's checkpoint writes since its last event.
	saves map[string][][2]time.Time
	// fresh marks streams whose next event is their first after a
	// fresh start, which also builds the instance and its initial
	// mapping: no callback separates that from the event, so the event
	// counts as an operation but gives no latency sample.
	fresh map[string]bool
	lat   []float64
	ops   int
}

func (c *fleetClock) start(id string, resumed bool) {
	c.mu.Lock()
	c.last[id] = time.Now()
	c.fresh[id] = !resumed
	c.mu.Unlock()
}

func (c *fleetClock) saved(id string, t0, t1 time.Time, bytes int) {
	c.tr.count("fleet.checkpoint_kb", float64(bytes)/1024)
	c.mu.Lock()
	c.saves[id] = append(c.saves[id], [2]time.Time{t0, t1})
	c.mu.Unlock()
}

func (c *fleetClock) event(id string) {
	now := time.Now()
	c.mu.Lock()
	t0 := c.last[id]
	c.last[id] = now
	saves := c.saves[id]
	delete(c.saves, id)
	fresh := c.fresh[id]
	c.fresh[id] = false
	c.ops++
	if !fresh {
		c.lat = append(c.lat, float64(now.Sub(t0).Nanoseconds())/1e6)
	}
	c.mu.Unlock()
	if fresh {
		return
	}
	step := c.tr.add("online.step", -1, c.pass, t0, now)
	for _, s := range saves {
		c.tr.add("fleet.checkpoint", step, c.pass, s[0], s[1])
	}
}

// clockStore is the pass's checkpoint store, timed through the clock.
type clockStore struct {
	inner *fleet.MemStore
	clock *fleetClock
}

func (s clockStore) Save(cp fleet.Checkpoint) error {
	t0 := time.Now()
	err := s.inner.Save(cp)
	s.clock.saved(cp.StreamID, t0, time.Now(), len(cp.Data))
	return err
}

func (s clockStore) Load(id string) (fleet.Checkpoint, bool, error) {
	cp, ok, err := s.inner.Load(id)
	s.clock.start(id, ok)
	return cp, ok, err
}

func (s clockStore) Delete(id string) error { return s.inner.Delete(id) }

// pass replays every stream once: the interrupted subset stops at its
// interrupt point and a second fleet.Run resumes it from the store.
// Results are in stream order and hold the completed runs.
func (f *replayFleet) pass(tr *tracer, clock *fleetClock, req int64) ([]fleet.Result, error) {
	clock.tr, clock.pass = tr, req
	clock.last, clock.saves, clock.fresh = map[string]time.Time{}, map[string][][2]time.Time{}, map[string]bool{}
	store := clockStore{inner: fleet.NewMemStore(), clock: clock}
	stop := map[string]bool{}
	var resumed []fleet.Stream
	for i, st := range f.streams {
		if interrupted(i) {
			stop[st.ID] = true
			resumed = append(resumed, st)
		}
	}
	opt := fleet.Options{
		Shards: gomaxprocs(), CheckpointEvery: fleetCadence, Store: store,
		Interrupt: func(id string, events int) bool {
			clock.event(id)
			return stop[id] && events == fleetInterruptAt
		},
	}
	first, err := fleet.Run(f.streams, opt)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Probe: the resume path (load, decode, restore) timed on its own
		// for every interrupted stream.
		for _, st := range resumed {
			s := tr.begin("fleet.resume", -1, req)
			cp, ok, err := store.inner.Load(st.ID)
			if err != nil || !ok {
				return nil, fmt.Errorf("stream %s: no checkpoint to resume from", st.ID)
			}
			snap, err := online.DecodeSnapshot(cp.Data)
			if err == nil {
				_, err = online.Restore(snap, st.Options)
			}
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("stream %s: %w", st.ID, err)
			}
		}
	}
	opt.Interrupt = func(id string, _ int) bool { clock.event(id); return false }
	second, err := fleet.Run(resumed, opt)
	if err != nil {
		return nil, err
	}
	k := 0
	for i := range first {
		if interrupted(i) {
			if !first[i].Interrupted {
				return nil, fmt.Errorf("stream %s was not interrupted", first[i].StreamID)
			}
			first[i] = second[k]
			k++
		}
	}
	return first, nil
}

func (f *replayFleet) run(d time.Duration, minOps int, tr *tracer) (*runStats, error) {
	rs := &runStats{}
	clock := &fleetClock{}
	var passes [][]fleet.Result
	t0 := time.Now()
	for time.Since(t0) < d || len(clock.lat) < minOps {
		res, err := f.pass(tr, clock, int64(len(passes)))
		if err != nil {
			return nil, err
		}
		passes = append(passes, res)
	}
	rs.busy = time.Since(t0)
	rs.lat = clock.lat
	rs.completed = clock.ops
	rs.cost = clock.lat
	for _, res := range passes {
		for i, r := range res {
			n := len(f.streams[i].Scenario.Events)
			rs.attempted += n
			if r.Err != nil {
				rs.failed += n
			}
		}
	}
	rs.out = passes
	if tr != nil {
		var events, rebuilt, repair float64
		for _, r := range passes[0] {
			for _, e := range r.Stats.Events {
				events++
				repair += float64(e.RepairEvaluations)
				if e.KernelRebuilt {
					rebuilt++
				}
			}
		}
		rs.layer = map[string]float64{
			"online.rebuild_ratio": rebuilt / max(events, 1),
			"online.repair_evals":  repair / max(events, 1),
		}
	}
	return rs, nil
}

// check requires every stream of every pass to complete with the trace
// of the first pass, and every resumed stream's trace to equal the same
// stream replayed without interruption. improvement_pct is the mean
// improvement of the repaired incumbents over each event's all-CPU
// baseline.
func (f *replayFleet) check(rs *runStats) (int, error) {
	passes := rs.out.([][]fleet.Result)
	wrong := 0
	ref := make([]string, len(f.streams))
	for i, st := range f.streams {
		if interrupted(i) {
			_, stats, err := online.Replay(st.Graph, st.Platform, st.Scenario, st.Options)
			if err != nil {
				return 0, err
			}
			ref[i] = stats.Trace()
		}
	}
	sum, events := 0.0, 0
	for p, res := range passes {
		for i, r := range res {
			tr := r.Stats.Trace()
			if r.Err != nil || len(r.Stats.Events) != len(f.streams[i].Scenario.Events) ||
				(ref[i] != "" && tr != ref[i]) {
				wrong++
				continue
			}
			if p == 0 {
				ref[i] = tr
				for _, e := range r.Stats.Events {
					sum += 100 * (e.Baseline - e.Makespan) / e.Baseline
					events++
				}
			}
		}
	}
	rs.improvementPct = sum / float64(max(events, 1))
	return wrong, nil
}
