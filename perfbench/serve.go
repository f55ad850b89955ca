package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mixnet/internal/scenario"
	"mixnet/internal/serve"
)

// The serve-mixed workload: closed-loop clients on keep-alive loopback
// connections to one in-process query service.
const (
	serveClients = 2
	serveWorkers = 2
	// serveSeeds is the pool of gate seeds for fresh iteration queries,
	// split between the clients so no seed repeats within a run.
	serveSeeds = 1024
	// popular is how many of a client's first fresh configurations per
	// fabric its repeat queries choose from, so repeats hit the result
	// cache.
	popular      = 8
	failureSeeds = 4
	// setupRounds is how many times set-up is measured; the median is
	// reported.
	setupRounds = 5
)

var (
	fabrics          = []string{"fat-tree", "mixnet"}
	failureScenarios = []string{scenario.FailNIC, scenario.FailServer}
	costServers      = []int{16, 64, 256}
	costGbps         = []int{100, 200, 400, 800}
)

// path is the endpoint answering c.
func (c config) path() string { return "/v1/" + c.Kind }

// body is c's request body.
func (c config) body(noCache bool) any {
	q := serve.QueryConfig{Fabric: c.Fabric, Iterations: iterations, Seed: c.Seed, NoCache: noCache}
	switch c.Kind {
	case "failure":
		return struct {
			serve.QueryConfig
			Scenario string `json:"scenario"`
		}{q, c.Scenario}
	case "cost":
		return struct {
			Fabric  string `json:"fabric"`
			Servers int    `json:"servers"`
			Gbps    int    `json:"gbps"`
		}{c.Fabric, c.Servers, c.Gbps}
	}
	return q
}

// slot is one query of a client's mix: a query kind and a fabric index.
type slot struct {
	kind   string // "fresh", "repeat", "failure" or "cost"
	fabric int
}

// deck is one block of a client's query mix: 40% fresh iteration queries
// that bypass the result cache, 30% repeats of an earlier iteration query,
// 20% failure drills and 10% cost queries, each split evenly between the
// fabrics. Dealing every block from a shuffled deck keeps each run's mix
// exact; the workload seed draws the order and the queries' parameters.
var deck = func() []slot {
	var d []slot
	for f := range fabrics {
		for _, k := range []struct {
			kind string
			n    int
		}{{"fresh", 4}, {"repeat", 3}, {"failure", 2}, {"cost", 1}} {
			for i := 0; i < k.n; i++ {
				d = append(d, slot{k.kind, f})
			}
		}
	}
	return d
}()

// serveGen draws one client's query sequence from the workload seed.
type serveGen struct {
	rng    *rand.Rand
	fresh  []int64 // this client's share of the fresh seeds
	next   int
	issued [][]config // per fabric, the client's first popular fresh configurations
	hand   []slot
}

func newServeGens(seed int64) []*serveGen {
	perm := rand.New(rand.NewPCG(uint64(seed), 0xf2e5)).Perm(serveSeeds)
	gens := make([]*serveGen, serveClients)
	for c := range gens {
		g := &serveGen{rng: rand.New(rand.NewPCG(uint64(seed), uint64(c+1))), issued: make([][]config, len(fabrics))}
		for i := c; i < len(perm); i += serveClients {
			g.fresh = append(g.fresh, int64(perm[i]+1))
		}
		gens[c] = g
	}
	return gens
}

// query returns the next query and whether it bypasses the result cache.
func (g *serveGen) query() (config, bool) {
	if len(g.hand) == 0 {
		g.hand = append(g.hand, deck...)
		g.rng.Shuffle(len(g.hand), func(a, b int) { g.hand[a], g.hand[b] = g.hand[b], g.hand[a] })
	}
	s := g.hand[len(g.hand)-1]
	g.hand = g.hand[:len(g.hand)-1]
	fabric := fabrics[s.fabric]
	switch s.kind {
	case "failure":
		return config{Kind: "failure", Fabric: fabric,
			Scenario: failureScenarios[g.rng.IntN(len(failureScenarios))],
			Seed:     int64(1 + g.rng.IntN(failureSeeds))}, true
	case "cost":
		return config{Kind: "cost", Fabric: fabric,
			Servers: costServers[g.rng.IntN(len(costServers))],
			Gbps:    costGbps[g.rng.IntN(len(costGbps))]}, false
	}
	if issued := g.issued[s.fabric]; s.kind == "repeat" && len(issued) > 0 {
		return issued[g.rng.IntN(len(issued))], false
	}
	c := config{Kind: "iter", Fabric: fabric, Seed: g.fresh[g.next%len(g.fresh)]}
	g.next++
	if len(g.issued[s.fabric]) < popular {
		g.issued[s.fabric] = append(g.issued[s.fabric], c)
	}
	return c, true
}

// client holds one keep-alive connection to the service.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// ask sends one query and times it as the client sees it: from sending
// the request until the whole response is read.
func (cl *client) ask(c config, noCache bool) outcome {
	o := outcome{cfg: c}
	body, err := json.Marshal(c.body(noCache))
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	resp, err := cl.hc.Post(cl.base+c.path(), "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(t0).Seconds()
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("%s: HTTP %d: %s", c.path(), resp.StatusCode, bytes.TrimSpace(data))
		return o
	}
	var env struct {
		Result json.RawMessage `json:"result"`
		Meta   serve.Meta      `json:"meta"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		o.err = fmt.Errorf("%s: decode: %w", c.path(), err)
		return o
	}
	o.engine = env.Meta.ElapsedSec
	o.digest = sha256.Sum256(env.Result)
	return o
}

// instance is one running service on a loopback listener.
type instance struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startInstance starts a service and warms it until one engine per
// configuration shape (one per fabric) is pooled. It returns the time that
// took.
func startInstance() (*instance, float64, error) {
	t0 := time.Now()
	srv := serve.New(serve.Options{Workers: serveWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { in.done <- in.hs.Serve(ln) }()
	cl := newClient(in.base)
	defer cl.close()
	for _, f := range fabrics {
		// Seed 0 lies outside every query pool.
		if o := cl.ask(config{Kind: "iter", Fabric: f}, true); o.err != nil {
			in.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return in, time.Since(t0).Seconds(), nil
}

// stop shuts the service down and waits for its workers and serve loop.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = in.hs.Shutdown(ctx) // a timeout still leaves Drain to wait for the workers
	in.srv.Drain()
	<-in.done
}

// tracedDeck reports whether a client's i-th query is traced in a traced
// run: every other deck is, so traced and untraced queries have the same
// mix and their latencies compare like with like.
func tracedDeck(i int) bool { return i/len(deck)%2 == 1 }

// runServe runs the serve-mixed workload. In a traced run the queries of
// every other deck record a span.
func runServe(seed int64, seconds float64, traced bool) (*runResult, error) {
	var setups []float64
	var in *instance
	for r := 0; r < setupRounds; r++ {
		if in != nil {
			in.stop()
		}
		var s float64
		var err error
		runtime.GC() // each start-up begins from a collected heap
		if in, s, err = startInstance(); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer in.stop()

	gens := newServeGens(seed)
	outs := make([][]outcome, serveClients)
	for c := range outs {
		outs[c] = make([]outcome, 0, outcomeCap(seconds))
	}
	recs := make([]*recorder, serveClients)
	t0 := time.Now()
	before := in.srv.StatsSnapshot()
	loop := startLoop(seconds)
	var attempted atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		if traced {
			recs[c] = newRecorder(t0)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(in.base)
			defer cl.close()
			for i := 0; loop.more(int(attempted.Load())); i++ {
				cfg, noCache := gens[c].query()
				var r *recorder
				if tracedDeck(i) {
					r = recs[c]
				}
				if r != nil {
					r.query = int32(i*serveClients + c)
				}
				id := r.begin("serve."+cfg.Kind, false)
				o := cl.ask(cfg, noCache)
				r.end(id)
				outs[c] = append(outs[c], o)
				attempted.Add(1)
			}
		}(c)
	}
	wg.Wait()
	rr := loop.finish()
	after := in.srv.StatsSnapshot()
	for _, o := range outs {
		rr.outs = append(rr.outs, o...)
	}
	rr.setup = median(setups)
	if !traced {
		return rr, nil
	}
	rr.layers = serveLayerMetrics(outs, before, after)
	for _, r := range recs {
		base := int32(len(rr.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			rr.spans = append(rr.spans, s)
		}
	}
	return rr, nil
}

// serveLayerMetrics computes the serve layer's metrics: client latency per
// endpoint, engine time against serving overhead, and the deltas of the
// service's own counters over the timed phase.
func serveLayerMetrics(outs [][]outcome, before, after serve.StatsCounters) map[string]float64 {
	byKind := map[string][]float64{}
	var engine, overhead, plain, tracedLat []float64
	for _, cs := range outs {
		for i, o := range cs {
			if o.err != nil {
				continue
			}
			byKind[o.cfg.Kind] = append(byKind[o.cfg.Kind], o.latency)
			engine = append(engine, o.engine)
			overhead = append(overhead, o.latency-o.engine)
			if tracedDeck(i) {
				tracedLat = append(tracedLat, o.latency)
			} else {
				plain = append(plain, o.latency)
			}
		}
	}
	d := func(a, b uint64) float64 { return float64(a - b) }
	pool := d(after.Pool.Hits, before.Pool.Hits)
	memo := d(after.Memo.Hits, before.Memo.Hits)
	rc := d(after.ResultCache.Hits, before.ResultCache.Hits)
	return map[string]float64{
		"serve.iter_s_p50":             median(byKind["iter"]),
		"serve.failure_s_p50":          median(byKind["failure"]),
		"serve.cost_s_p50":             median(byKind["cost"]),
		"serve.engine_s":               median(engine),
		"serve.overhead_s":             median(overhead),
		"serve.pool_hit_ratio":         ratio(pool, pool+d(after.Pool.Misses, before.Pool.Misses)),
		"serve.pool_restores":          d(after.Pool.Restores, before.Pool.Restores),
		"serve.pool_evictions":         d(after.Pool.Evictions, before.Pool.Evictions),
		"serve.memo_hit_ratio":         ratio(memo, memo+d(after.Memo.Misses, before.Memo.Misses)),
		"serve.result_cache_hit_ratio": ratio(rc, rc+d(after.ResultCache.Misses, before.ResultCache.Misses)),
		"serve.timeouts":               d(after.Timeouts, before.Timeouts),
		"serve.errors":                 d(after.Errors, before.Errors),
		"trace.overhead_frac":          ratio(median(tracedLat), median(plain)) - 1,
	}
}
