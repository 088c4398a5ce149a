package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"spmap/internal/bounds"
	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/portfolio"
)

// race-search: certified portfolio races on a fixed graph set, closed
// loop with one client and the engine on every core. The work is in
// the eval incremental sessions and shared cache, portfolio/coord,
// localsearch, ga and bounds; decomposition runs only as the SPFF
// member's opener. Kernels are compiled in set-up; each race starts a
// fresh shared cache.

const (
	// raceGraphs graphs of raceTasks tasks, half SP and half almost-SP:
	// enough distinct races that a run's mean cost hardly depends on
	// which graphs the seed drew.
	raceGraphs    = 96
	raceTasks     = 60
	raceSchedules = 20
	raceBudget    = 2000
	// incMoves is the number of incremental-session moves the traced
	// probe evaluates per race.
	incMoves = 32
)

type raceCase struct {
	ev   *model.Evaluator
	seed int64
}

type raceOut struct {
	item int
	m    mapping.Mapping
	st   portfolio.Stats
}

type race struct {
	cases []raceCase
}

func setupRace(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	p := platform.Reference()
	n, perKind := raceTasks, raceGraphs/2
	if cfg.size == tiny {
		n, perKind = 16, 1
	}
	var graphs []*graph.DAG
	for i := 0; i < perKind; i++ {
		graphs = append(graphs,
			gen.SeriesParallel(rng, n, gen.DefaultAttr()),
			gen.AlmostSeriesParallel(rng, n, n/10, gen.DefaultAttr()))
	}
	r := &race{}
	for _, g := range graphs {
		ev := model.NewEvaluator(g, p).WithSchedules(raceSchedules, rng.Int63())
		ev.Engine() // compile in set-up
		r.cases = append(r.cases, raceCase{ev: ev, seed: rng.Int63()})
	}
	return r, nil
}

func (r *race) close() {}

func (r *race) op(i int, req int64, tr *tracer) (raceOut, int64, error) {
	c := r.cases[i]
	root := tr.begin("race.op", -1, req)
	defer tr.end(root)
	s := tr.begin("portfolio.race", root, req)
	m, st, err := portfolio.MapWithEvaluator(c.ev, portfolio.Options{
		Budget: raceBudget, Seed: c.seed, Workers: gomaxprocs(),
	})
	tr.end(s)
	if err != nil {
		return raceOut{}, 0, err
	}
	var probeNS int64
	if tr != nil {
		raceNS := tr.durationNS(s)
		tr.count("portfolio.rounds", float64(st.Rounds))
		tr.count("portfolio.budget_moved", float64(st.BudgetMoved))
		tr.count("bounds.gap_pct", 100*st.Gap)
		tr.count("portfolio.evals", float64(st.Evaluations))
		tr.count("portfolio.race_s", float64(raceNS)/1e9)
		tr.count("cache.hits", float64(st.Cache.Hits))
		tr.count("cache.lookups", float64(st.Cache.Hits+st.Cache.Misses))

		// Probe: the combinatorial certificate the race computed
		// internally, timed on its own.
		s = tr.begin("bounds.certify", root, req)
		bounds.Certify(c.ev)
		tr.end(s)
		probeNS += tr.durationNS(s)

		// Probe: single-task moves around the race's result in an
		// incremental session, every eighth one applied.
		rng := rand.New(rand.NewSource(c.seed))
		nd := c.ev.P.NumDevices()
		sess := c.ev.Engine().WithWorkers(1).Incremental(m, nil)
		for k := 0; k < incMoves; k++ {
			patch := []graph.NodeID{graph.NodeID(rng.Intn(len(m)))}
			dev := rng.Intn(nd)
			s = tr.begin("eval.inc_move", root, req)
			if k%8 == 7 {
				sess.Apply(patch, dev)
			} else {
				sess.Evaluate(patch, dev, math.Inf(1))
			}
			tr.end(s)
			probeNS += tr.durationNS(s)
		}
		sess.Close()
	}
	return raceOut{item: i, m: m, st: st}, probeNS, nil
}

func (r *race) run(d time.Duration, minOps int, tr *tracer) (*runStats, error) {
	rs := &runStats{}
	var outs []raceOut
	t0 := time.Now()
	for time.Since(t0) < d || len(rs.lat) < minOps {
		i := rs.attempted % len(r.cases)
		start := time.Now()
		out, probeNS, err := r.op(i, int64(rs.attempted), tr)
		el := time.Since(start)
		rs.attempted++
		if err != nil {
			rs.failed++
			continue
		}
		rs.lat = append(rs.lat, float64(el.Nanoseconds())/1e6)
		rs.cost = append(rs.cost, float64(el.Nanoseconds()-probeNS)/1e6)
		outs = append(outs, out)
	}
	rs.busy = time.Since(t0)
	rs.out = outs
	if tr != nil {
		sum := tr.sums("portfolio.evals", "portfolio.race_s", "cache.hits", "cache.lookups")
		rs.layer = map[string]float64{
			"portfolio.evals_per_s": sum[0] / sum[1],
			"eval.cache_hit_ratio":  sum[2] / sum[3],
		}
	}
	return rs, nil
}

// check validates every result against the portfolio's contract: a
// valid mapping whose makespan the evaluator reproduces (the reference
// simulation on a sample), no worse than the best member, above the
// certified lower bound, and identical on every repeat of a race.
func (r *race) check(rs *runStats) (int, error) {
	outs := rs.out.([]raceOut)
	first := make([]*raceOut, len(r.cases))
	wrong := 0
	for k := range outs {
		o := &outs[k]
		if err := r.verify(o, first[o.item]); err != nil {
			wrong++
			continue
		}
		if first[o.item] == nil {
			first[o.item] = o
		}
	}
	sum := 0.0
	for i, o := range first {
		if o == nil {
			out, _, err := r.op(i, -1, nil)
			if err != nil {
				return wrong, err
			}
			if err := r.verify(&out, nil); err != nil {
				return wrong, err
			}
			o = &out
		}
		sum += 100 * r.cases[i].ev.RelativeImprovement(o.st.Makespan)
	}
	rs.improvementPct = sum / float64(len(r.cases))
	return wrong, nil
}

func (r *race) verify(o *raceOut, ref *raceOut) error {
	ev := r.cases[o.item].ev
	if err := o.m.Validate(ev.G, ev.P); err != nil {
		return fmt.Errorf("race %d: %w", o.item, err)
	}
	if ref != nil {
		if !o.m.Equal(ref.m) || math.Float64bits(o.st.Makespan) != math.Float64bits(ref.st.Makespan) {
			return fmt.Errorf("race %d: repeat differs from its first result", o.item)
		}
		return nil
	}
	want := ev.Makespan(o.m)
	if o.item%2 == 0 {
		want = ev.ReferenceMakespan(o.m)
	}
	if math.Float64bits(want) != math.Float64bits(o.st.Makespan) {
		return fmt.Errorf("race %d: makespan %v, evaluator says %v", o.item, o.st.Makespan, want)
	}
	for _, ms := range o.st.Members {
		if ms.Makespan < o.st.Makespan {
			return fmt.Errorf("race %d: member %s found %v, better than the result %v", o.item, ms.Kind, ms.Makespan, o.st.Makespan)
		}
	}
	if o.st.LowerBound > o.st.Makespan {
		return fmt.Errorf("race %d: lower bound %v above makespan %v", o.item, o.st.LowerBound, o.st.Makespan)
	}
	return nil
}
