// Command perfbench is the repository's benchmark: closed-loop what-if
// queries against the simulator, timed end to end in host wall-clock
// seconds and, in a separate traced run, layer by layer from outside the
// program (spans around each layer's public calls).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: fattree-solve, mixnet-reconfig, serve-mixed (see README.md).
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1). Every answered configuration is checked once,
// after the timed phase, against the library's batch entry points, the
// analytic bounds and the golden digests in golden.json; a mismatch fails
// the run. Simulated seconds are model output and checked for identity
// only; they are never a performance metric.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const mib = 1 << 20

// minQueries is the fewest queries a timed phase answers, so that p90 has
// ten samples beyond it.
const minQueries = 100

// graceSeconds bounds how far past --seconds a slow host may extend the
// timed phase to reach minQueries.
const graceSeconds = 60

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"query_s_p50", "s"},
	{"query_s_p90", "s"},
	{"queries_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mb_per_query", "MiB"},
	{"heap_live_mb", "MiB"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise, or whose calls the benchmark cannot see on it, reports 0.
var perLayer = []metricDef{
	{"topo.build_s", "s"},
	{"trainsim.new_s", "s"},
	{"trainsim.begin_s", "s"},
	{"trainsim.begin_alloc_mb", "MiB"},
	{"commplan.execute_s", "s"},
	{"commplan.schedule_s", "s"},
	{"netsim.solve_s", "s"},
	{"trainsim.finish_s", "s"},
	{"netsim.calls_per_iter", "count"},
	{"netsim.phases_per_iter", "count"},
	{"netsim.flows_per_iter", "count"},
	{"netsim.flows_per_s", "1/s"},
	{"commplan.steps", "count"},
	{"commplan.frontiers", "count"},
	{"commplan.frontier_width_mean", "count"},
	{"commplan.csr_reuse_ratio", "ratio"},
	{"collective.memo_hits", "count"},
	{"collective.memo_misses", "count"},
	{"collective.memo_hit_ratio", "ratio"},
	{"ocs.reconfigs_per_iter", "count"},
	{"serve.iter_s_p50", "s"},
	{"serve.failure_s_p50", "s"},
	{"serve.cost_s_p50", "s"},
	{"serve.engine_s", "s"},
	{"serve.overhead_s", "s"},
	{"serve.pool_hit_ratio", "ratio"},
	{"serve.pool_restores", "count"},
	{"serve.pool_evictions", "count"},
	{"serve.memo_hit_ratio", "ratio"},
	{"serve.result_cache_hit_ratio", "ratio"},
	{"serve.timeouts", "count"},
	{"serve.errors", "count"},
	{"go.gc_cycles_per_query", "count"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

//go:embed golden.json
var goldenJSON []byte

// runResult is what a workload measured in one run.
type runResult struct {
	outs     []outcome
	wall     float64 // seconds of the timed phase
	alloc    uint64  // bytes allocated during the timed phase
	gcCycles uint32
	heapLive uint64 // live heap after forced GCs at the end of the timed phase
	setup    float64
	layers   map[string]float64 // traced run: per-layer metrics
	spans    []span             // traced run
}

// maxRate bounds any workload's query rate on the hosts the benchmark runs
// on; see outcomeCap.
const maxRate = 200

// outcomeCap sizes a timed phase's outcome records up front, so that their
// heap does not grow with the query rate and show in heap_live_mb.
func outcomeCap(seconds float64) int { return int(maxRate*seconds) + minQueries }

// timedLoop bounds a closed-loop timed phase: it runs for at least the
// requested seconds and until minQueries were attempted, but never more
// than graceSeconds past the requested length.
type timedLoop struct {
	start, deadline, hardStop time.Time
	ms0                       runtime.MemStats
}

func startLoop(seconds float64) *timedLoop {
	l := &timedLoop{}
	runtime.GC() // start from a collected heap, not the set-up's garbage
	runtime.ReadMemStats(&l.ms0)
	l.start = time.Now()
	l.deadline = l.start.Add(time.Duration(seconds * float64(time.Second)))
	l.hardStop = l.deadline.Add(graceSeconds * time.Second)
	return l
}

// more reports whether another query should start, given how many were
// attempted so far. Safe for concurrent use.
func (l *timedLoop) more(attempted int) bool {
	now := time.Now()
	return now.Before(l.hardStop) && (now.Before(l.deadline) || attempted < minQueries)
}

// finish ends the timed phase and reads its memory counters.
func (l *timedLoop) finish() *runResult {
	wall := time.Since(l.start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rr := &runResult{wall: wall, alloc: ms.TotalAlloc - l.ms0.TotalAlloc, gcCycles: ms.NumGC - l.ms0.NumGC}
	// Two collections: the second also drops what sync.Pool victim caches
	// kept through the first, so only state the program retains is counted.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rr.heapLive = ms.HeapAlloc
	return rr
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "fattree-solve, mixnet-reconfig or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same queries")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans")
	golden := flag.String("write-golden", "", "verify every configuration the workloads can ask and write their digests to this file, then exit")
	flag.Parse()

	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	traced := *trace == 1
	var rr *runResult
	var err error
	switch *workload {
	case "fattree-solve":
		rr, err = runSimulate("fat-tree", *seed, *seconds, traced)
	case "mixnet-reconfig":
		rr, err = runSimulate("mixnet", *seed, *seconds, traced)
	case "serve-mixed":
		rr, err = runServe(*seed, *seconds, traced)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have fattree-solve, mixnet-reconfig, serve-mixed)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// Parsed only now, so the golden map is not part of heap_live_mb.
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: golden.json:", err)
		return 1
	}
	cfgs := distinct(rr.outs)
	t0 := time.Now()
	want, problems := verifyAll(cfgs, g)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	failed := tally(rr.outs, want)
	var latencies []float64
	for _, o := range rr.outs {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.cfg.key(), o.err)
		} else {
			latencies = append(latencies, o.latency)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %d: %d queries (%d answered) in %.2f s, %d distinct configurations checked in %.2f s, %d failed\n",
		*workload, *seed, *trace, len(rr.outs), len(latencies), rr.wall, len(cfgs), time.Since(t0).Seconds(), failed)

	rep := report{Correct: failed == 0, Attempted: len(rr.outs), Failed: failed, Metrics: map[string]metric{}}
	if traced {
		rr.layers["go.gc_cycles_per_query"] = ratio(float64(rr.gcCycles), float64(len(rr.outs)))
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{rr.layers[m.name], m.unit}
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(path, rr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rr.spans), path)
	} else {
		p50, ok50 := percentile(latencies, 0.50)
		p90, ok90 := percentile(latencies, 0.90)
		if !ok50 || !ok90 {
			fmt.Fprintf(os.Stderr, "perfbench: %d answered queries are too few for a p90\n", len(latencies))
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: query_s over %d samples\n", len(latencies))
		vals := map[string]float64{
			"query_s_p50":        p50,
			"query_s_p90":        p90,
			"queries_per_s":      float64(len(latencies)) / rr.wall,
			"setup_s":            rr.setup,
			"alloc_mb_per_query": float64(rr.alloc) / mib / float64(len(rr.outs)),
			"heap_live_mb":       float64(rr.heapLive) / mib,
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}
