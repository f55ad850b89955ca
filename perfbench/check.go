package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"mixnet"
	"mixnet/internal/scenario"
)

// config is one distinct query configuration. Every other field takes the
// library default: Mixtral 8x7B at 400 Gbps, fluid backend, no overlap,
// block first-A2A and 25 ms reconfiguration on MixNet.
type config struct {
	Kind     string // "iter", "failure" or "cost"
	Fabric   string // "fat-tree" or "mixnet"
	Seed     int64  // gate seed (iter, failure)
	Scenario string // failure drill (failure)
	Servers  int    // cost
	Gbps     int    // cost
}

// iterations is the number of training iterations every query simulates.
const iterations = 2

func (c config) key() string {
	switch c.Kind {
	case "failure":
		return fmt.Sprintf("failure/%s/%s/seed=%d", c.Fabric, c.Scenario, c.Seed)
	case "cost":
		return fmt.Sprintf("cost/%s/servers=%d/gbps=%d", c.Fabric, c.Servers, c.Gbps)
	}
	return fmt.Sprintf("iter/%s/seed=%d", c.Fabric, c.Seed)
}

// outcome is one query as its caller saw it.
type outcome struct {
	cfg     config
	latency float64  // host seconds, as the caller observed them
	engine  float64  // serve: meta.elapsed_sec
	setup   float64  // simulate: topo.Build* + trainsim.New seconds
	traced  bool     // the query ran traced
	digest  [32]byte // SHA-256 of the result bytes
	err     error    // the query errored or was refused
}

// tally counts the failed queries: those that errored or were refused, and
// those whose result digest differs from the verified digest of their
// configuration. A configuration missing from want failed verification.
func tally(outs []outcome, want map[string][32]byte) int {
	failed := 0
	for _, o := range outs {
		if o.err != nil {
			failed++
			continue
		}
		if d, ok := want[o.cfg.key()]; !ok || d != o.digest {
			failed++
		}
	}
	return failed
}

// fabricKind maps a fabric name onto the public API's fabric.
func fabricKind(name string) (mixnet.Fabric, error) {
	k, ok := scenario.Fabrics()[name]
	if !ok {
		return 0, fmt.Errorf("unknown fabric %q", name)
	}
	return k, nil
}

// simulate runs c through the batch entry point mixnet.Simulate.
func simulate(c config, backend string) (mixnet.Result, error) {
	k, err := fabricKind(c.Fabric)
	if err != nil {
		return mixnet.Result{}, err
	}
	return mixnet.Simulate(mixnet.SimConfig{Fabric: k, Backend: backend, Iterations: iterations, Seed: c.Seed})
}

// reference computes c's result bytes with the library's batch entry
// points, the ones cmd/mixnet-sim and cmd/mixnet-cost use.
func reference(c config) ([]byte, error) {
	switch c.Kind {
	case "failure":
		r, err := scenario.Run(c.Scenario, scenario.Config{Fabric: c.Fabric, Iterations: iterations, Seed: c.Seed})
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	case "cost":
		k, err := fabricKind(c.Fabric)
		if err != nil {
			return nil, err
		}
		r, err := mixnet.NetworkCost(k, c.Servers, c.Gbps)
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	}
	r, err := simulate(c, "")
	if err != nil {
		return nil, err
	}
	if err := checkBounds(c, r.MeanIterTime); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// checkBounds checks a fluid iteration time against bounds that do not
// trust the fluid solver: the analytic alpha-beta estimate never exceeds
// it, and on fat-tree fractional ECMP spreading never exceeds the sampled
// analytic estimate. MixNet is exempt from the second bound: its circuits
// are not an ECMP fabric, and the bound does not hold there.
func checkBounds(c config, fluid float64) error {
	an, err := simulate(c, "analytic")
	if err != nil {
		return err
	}
	if an.MeanIterTime > fluid {
		return fmt.Errorf("analytic %.9g s > fluid %.9g s", an.MeanIterTime, fluid)
	}
	if c.Fabric != "fat-tree" {
		return nil
	}
	ec, err := simulate(c, "analytic-ecmp")
	if err != nil {
		return err
	}
	if ec.MeanIterTime > an.MeanIterTime {
		return fmt.Errorf("analytic-ecmp %.9g s > analytic %.9g s", ec.MeanIterTime, an.MeanIterTime)
	}
	return nil
}

// verifyAll computes the reference digest of every configuration, two at
// a time, and checks it against its golden digest. It returns the verified
// digests, keyed by configuration, and one line per configuration that
// failed; a failed configuration is absent from the map. A nil golden map
// skips the golden comparison.
func verifyAll(cfgs []config, golden map[string]string) (map[string][32]byte, []string) {
	want := map[string][32]byte{}
	var problems []string
	var mu sync.Mutex
	next := make(chan config)
	var wg sync.WaitGroup
	for w := 0; w < min(2, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				d, err := verify(c, golden)
				mu.Lock()
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s: %v", c.key(), err))
				} else {
					want[c.key()] = d
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range cfgs {
		next <- c
	}
	close(next)
	wg.Wait()
	sort.Strings(problems)
	return want, problems
}

func verify(c config, golden map[string]string) ([32]byte, error) {
	b, err := reference(c)
	if err != nil {
		return [32]byte{}, err
	}
	d := sha256.Sum256(b)
	if golden == nil {
		return d, nil
	}
	g, ok := golden[c.key()]
	if !ok {
		return d, fmt.Errorf("no golden digest")
	}
	if got := hex.EncodeToString(d[:]); got != g {
		return d, fmt.Errorf("result digest %s differs from golden %s", got, g)
	}
	return d, nil
}

// distinct returns the distinct configurations answered in outs, in key
// order.
func distinct(outs []outcome) []config {
	seen := map[string]config{}
	for _, o := range outs {
		seen[o.cfg.key()] = o.cfg
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cfgs := make([]config, len(keys))
	for i, k := range keys {
		cfgs[i] = seen[k]
	}
	return cfgs
}

// writeGolden verifies every configuration the workloads can generate and
// writes their digests to path.
func writeGolden(path string) error {
	want, problems := verifyAll(domain(), nil)
	if len(problems) > 0 {
		return fmt.Errorf("golden: %d configurations failed: %v", len(problems), problems)
	}
	g := make(map[string]string, len(want))
	for k, d := range want {
		g[k] = hex.EncodeToString(d[:])
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// domain lists every configuration a workload can ask: the golden file
// holds a digest for each.
func domain() []config {
	var cfgs []config
	for _, f := range fabrics {
		for s := 1; s <= max(simSeeds, serveSeeds); s++ {
			cfgs = append(cfgs, config{Kind: "iter", Fabric: f, Seed: int64(s)})
		}
		for _, sc := range failureScenarios {
			for s := 1; s <= failureSeeds; s++ {
				cfgs = append(cfgs, config{Kind: "failure", Fabric: f, Scenario: sc, Seed: int64(s)})
			}
		}
		for _, n := range costServers {
			for _, g := range costGbps {
				cfgs = append(cfgs, config{Kind: "cost", Fabric: f, Servers: n, Gbps: g})
			}
		}
	}
	return cfgs
}
