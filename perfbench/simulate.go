package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"mixnet"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/ocs"
	"mixnet/internal/parallel"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// simSeeds is the number of gate seeds a simulate workload cycles through:
// every run answers all of them, so the reference check costs a bounded
// number of simulations and the golden file covers every answer.
const simSeeds = 32

// seedCycle yields gate seeds 1..n, each cycle in a fresh order drawn from
// the workload seed.
type seedCycle struct {
	rng  *rand.Rand
	perm []int
	i    int
}

func newSeedCycle(seed int64, n int) *seedCycle {
	return &seedCycle{rng: rand.New(rand.NewPCG(uint64(seed), 0x5eed)), perm: make([]int, n), i: n}
}

func (c *seedCycle) next() int64 {
	if c.i == len(c.perm) {
		for k := range c.perm {
			c.perm[k] = k + 1
		}
		c.rng.Shuffle(len(c.perm), func(a, b int) { c.perm[a], c.perm[b] = c.perm[b], c.perm[a] })
		c.i = 0
	}
	c.i++
	return int64(c.perm[c.i-1])
}

// buildCluster builds the fabric the way the scenario runner sizes it for
// a plan: one server per 8 GPUs, 400 Gbps NICs, regions spanning an EP
// group.
func buildCluster(fabric string, plan moe.TrainPlan) *topo.Cluster {
	spec := topo.DefaultSpec(plan.GPUs()/8, 400*topo.Gbps)
	spec.RegionServers = parallel.RegionServersPerEPGroup(plan, spec.GPUsPerServer)
	if fabric == "mixnet" {
		return topo.BuildMixNet(spec)
	}
	return topo.BuildFatTree(spec)
}

// engineOptions are the scenario runner's engine options for c.
func engineOptions(c config) trainsim.Options {
	opts := trainsim.Options{GateSeed: c.Seed}
	if c.Fabric == "mixnet" {
		opts.Device = ocs.NewFixedDevice(25e-3)
		opts.FirstA2A = trainsim.FirstA2ABlock
	}
	return opts
}

// simCounts are one query's work counts, read from the layers' own stats.
type simCounts struct {
	iters, calls, phases, flows int
	steps, frontiers, width     int
	csrBuilds, csrReuses        uint64
	memoHits, memoMisses        uint64
	reconfigs                   int
}

// simQuery answers one iteration query through the layers' public calls:
// topo.Build*, trainsim.New, then per iteration BeginIteration, the plan's
// Execute on a netsim backend, and FinishIteration. A non-nil rec records
// a span around each call and wraps the backend in a timedBackend. It
// returns the result, the set-up time (build and New) and the query time.
func simQuery(c config, rec *recorder) (res mixnet.Result, setup, total time.Duration, n simCounts, err error) {
	defer func() {
		if err != nil && rec != nil {
			rec.open = rec.open[:0]
		}
	}()
	m, plan, err := moe.PlanFor(moe.Mixtral8x7B.Name, 1)
	if err != nil {
		return res, 0, 0, n, err
	}
	t0 := time.Now()
	root := rec.begin("query", false)
	id := rec.begin("topo.build", true)
	cl := buildCluster(c.Fabric, plan)
	rec.end(id)
	id = rec.begin("trainsim.new", true)
	e, err := trainsim.New(m, plan, cl, engineOptions(c))
	rec.end(id)
	if err != nil {
		return res, 0, 0, n, err
	}
	setup = time.Since(t0)
	backend, err := netsim.NewWithOptions("", "", 0, false)
	if err != nil {
		return res, 0, 0, n, err
	}
	var tb *timedBackend
	if rec != nil {
		tb = &timedBackend{inner: backend, rec: rec}
		backend = tb
	}
	stats := make([]trainsim.IterStats, 0, iterations)
	for i := 0; i < iterations; i++ {
		id = rec.begin("trainsim.begin", true)
		err = e.BeginIteration()
		rec.end(id)
		if err != nil {
			return res, 0, 0, n, err
		}
		p := e.CommPlan()
		id = rec.begin("commplan.execute", true)
		err = p.Execute(cl.G, backend, false)
		rec.end(id)
		if err != nil {
			return res, 0, 0, n, err
		}
		n.steps += p.Len()
		for _, w := range p.BatchWidths() {
			n.frontiers++
			n.width += w
		}
		id = rec.begin("trainsim.finish", true)
		st, err := e.FinishIteration()
		rec.end(id)
		if err != nil {
			return res, 0, 0, n, err
		}
		stats = append(stats, st)
		n.reconfigs += st.Reconfigs
	}
	rec.end(root)
	total = time.Since(t0)

	n.iters = iterations
	if tb != nil {
		n.calls, n.phases, n.flows = tb.calls, tb.phases, tb.flows
	}
	ps := e.CommPlan().Stats()
	n.csrBuilds, n.csrReuses = ps.CSRBuilds, ps.CSRReuses
	ms := e.MemoStats()
	n.memoHits, n.memoMisses = ms.Hits, ms.Misses
	res = mixnet.Result{
		MeanIterTime: trainsim.MeanIterTime(stats),
		Stats:        stats,
		GPUs:         cl.GPUCount(),
		Servers:      len(cl.Servers),
	}
	return res, setup, total, n, nil
}

// runSimulate runs a simulate workload: one client asking cold iteration
// queries on one fabric in a closed loop. In a traced run every other
// query is traced, and the untraced ones give the tracing overhead.
func runSimulate(fabric string, seed int64, seconds float64, traced bool) (*runResult, error) {
	// Untimed warm-up: lazy runtime and allocator set-up is not a query cost.
	if _, _, _, _, err := simQuery(config{Kind: "iter", Fabric: fabric, Seed: 1}, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var rec *recorder
	if traced {
		rec = newRecorder(time.Now())
	}
	seeds := newSeedCycle(seed, simSeeds)
	outs := make([]outcome, 0, outcomeCap(seconds))
	var counts simCounts
	loop := startLoop(seconds)
	for i := 0; loop.more(len(outs)); i++ {
		c := config{Kind: "iter", Fabric: fabric, Seed: seeds.next()}
		var r *recorder
		if traced && i%2 == 1 {
			r = rec
			r.query = int32(i)
		}
		res, setup, total, n, err := simQuery(c, r)
		o := outcome{cfg: c, latency: total.Seconds(), setup: setup.Seconds(), traced: r != nil, err: err}
		if err == nil {
			var b []byte
			b, o.err = json.Marshal(res)
			o.digest = sha256.Sum256(b)
			if r != nil {
				counts.add(n)
			}
		}
		outs = append(outs, o)
	}
	rr := loop.finish()
	rr.outs = outs
	var setups, plain, tracedLat []float64
	tracedQueries := map[int32]float64{} // query id -> latency
	for i, o := range outs {
		switch {
		case o.err != nil:
		case o.traced:
			tracedLat = append(tracedLat, o.latency)
			tracedQueries[int32(i)] = o.latency
		default:
			plain = append(plain, o.latency)
			setups = append(setups, o.setup)
		}
	}
	rr.setup = median(setups)
	if traced {
		rr.layers = simLayerMetrics(rec, tracedQueries, counts)
		rr.layers["trace.overhead_frac"] = ratio(median(tracedLat), median(plain)) - 1
		rr.spans = rec.spans
	}
	return rr, nil
}

func (a *simCounts) add(b simCounts) {
	a.iters += b.iters
	a.calls += b.calls
	a.phases += b.phases
	a.flows += b.flows
	a.steps += b.steps
	a.frontiers += b.frontiers
	a.width += b.width
	a.csrBuilds += b.csrBuilds
	a.csrReuses += b.csrReuses
	a.memoHits += b.memoHits
	a.memoMisses += b.memoMisses
	a.reconfigs += b.reconfigs
}

// simLayerMetrics turns the traced queries' spans and counts into the
// per-layer metrics: per-query self times (medians) and work counts.
// latency maps each traced query's id to its query time.
func simLayerMetrics(rec *recorder, latency map[int32]float64, n simCounts) map[string]float64 {
	self := selfTimes(rec.spans)
	beginAlloc := map[int32]float64{}
	for _, s := range rec.spans {
		if s.Name == "trainsim.begin" {
			beginAlloc[s.Query] += float64(s.Alloc)
		}
	}
	per := func(f func(q int32, m map[string]float64) float64) float64 {
		xs := make([]float64, 0, len(latency))
		for q := range latency {
			xs = append(xs, f(q, self[q]))
		}
		return median(xs)
	}
	layer := func(name string) float64 {
		return per(func(_ int32, m map[string]float64) float64 { return m[name] })
	}
	solve := 0.0
	for q := range latency {
		solve += self[q]["netsim.solve"]
	}
	iters := float64(n.iters)
	mem := float64(n.memoHits + n.memoMisses)
	nq := float64(len(latency))
	return map[string]float64{
		"topo.build_s":        layer("topo.build"),
		"trainsim.new_s":      layer("trainsim.new"),
		"trainsim.begin_s":    layer("trainsim.begin"),
		"trainsim.finish_s":   layer("trainsim.finish"),
		"netsim.solve_s":      layer("netsim.solve"),
		"commplan.schedule_s": layer("commplan.execute"),
		"commplan.execute_s": per(func(_ int32, m map[string]float64) float64 {
			return m["commplan.execute"] + m["netsim.solve"]
		}),
		"trainsim.begin_alloc_mb": per(func(q int32, _ map[string]float64) float64 {
			return beginAlloc[q] / mib
		}),
		"trace.unattributed_frac": per(func(q int32, m map[string]float64) float64 {
			return ratio(m["query"], latency[q])
		}),
		"netsim.calls_per_iter":        ratio(float64(n.calls), iters),
		"netsim.phases_per_iter":       ratio(float64(n.phases), iters),
		"netsim.flows_per_iter":        ratio(float64(n.flows), iters),
		"netsim.flows_per_s":           ratio(float64(n.flows), solve),
		"commplan.steps":               ratio(float64(n.steps), iters),
		"commplan.frontiers":           ratio(float64(n.frontiers), iters),
		"commplan.frontier_width_mean": ratio(float64(n.width), float64(n.frontiers)),
		"commplan.csr_reuse_ratio":     ratio(float64(n.csrReuses), float64(n.csrBuilds+n.csrReuses)),
		"collective.memo_hits":         ratio(float64(n.memoHits), nq),
		"collective.memo_misses":       ratio(float64(n.memoMisses), nq),
		"collective.memo_hit_ratio":    ratio(float64(n.memoHits), mem),
		"ocs.reconfigs_per_iter":       ratio(float64(n.reconfigs), iters),
	}
}
