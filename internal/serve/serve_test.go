package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mixnet/internal/failure"
	"mixnet/internal/scenario"
	"mixnet/internal/trainsim"
)

func testClient(t *testing.T, srv *Server) (*client, func()) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	return &client{base: ts.URL, http: ts.Client()}, func() {
		ts.Close()
		srv.Drain()
	}
}

// TestShapeKeyIgnoresPerQueryKnobs: seed, iterations and trace must not
// split the engine pool; everything shape-affecting must.
func TestShapeKeyIgnoresPerQueryKnobs(t *testing.T) {
	t.Parallel()
	base := scenario.Config{Fabric: "fat-tree", Seed: 1, Iterations: 2}
	alt := base
	alt.Seed, alt.Iterations = 99, 7
	if ShapeKey(base) != ShapeKey(alt) {
		t.Error("seed/iterations changed the shape key")
	}
	alt = base
	alt.Fabric = "mixnet"
	if ShapeKey(base) == ShapeKey(alt) {
		t.Error("fabric change did not change the shape key")
	}
	alt = base
	alt.Backend = "analytic"
	if ShapeKey(base) == ShapeKey(alt) {
		t.Error("backend change did not change the shape key")
	}
	// Defaults canonicalize: zero config and spelled-out defaults collide.
	if ShapeKey(scenario.Config{}) != ShapeKey(scenario.Config{}.WithDefaults()) {
		t.Error("defaulted and explicit configs key differently")
	}
}

// query is one entry of the interleaved determinism mix.
type query struct {
	name string
	path string
	body any
}

func determinismMix(iters int) []query {
	iterQ := func(fabric string, seed int64) query {
		return query{
			name: "iter-" + fabric + "-" + string(rune('0'+seed)),
			path: "/v1/iter",
			body: QueryConfig{Fabric: fabric, Iterations: iters, Seed: seed},
		}
	}
	return []query{
		iterQ("fat-tree", 1),
		iterQ("fat-tree", 2),
		{"fail-nic", "/v1/failure", failureQuery{
			QueryConfig: QueryConfig{Fabric: "fat-tree", Iterations: iters, Seed: 1},
			Scenario:    scenario.FailNIC,
		}},
		iterQ("mixnet", 1),
		{"fail-gpu", "/v1/failure", failureQuery{
			QueryConfig: QueryConfig{Fabric: "fat-tree", Iterations: iters, Seed: 2},
			Scenario:    scenario.FailGPU,
		}},
		{"cost", "/v1/cost", costQuery{Fabric: "mixnet", Servers: 64, Gbps: 400}},
		iterQ("fat-tree", 3),
		{"fail-server", "/v1/failure", failureQuery{
			QueryConfig: QueryConfig{Fabric: "mixnet", Iterations: iters, Seed: 1},
			Scenario:    scenario.FailServer,
		}},
	}
}

// TestConcurrentQueryDeterminism: N goroutines fire an interleaved query
// mix at the service — pool sizes 1, 2 and 8 — and every response must be
// byte-identical to the serial single-engine answer, no matter which warm
// engine served it or what ran before on that engine. Run under -race in
// CI; the shared memo, pool and baseline cache are all exercised.
func TestConcurrentQueryDeterminism(t *testing.T) {
	const iters = 2
	mix := determinismMix(iters)

	// Serial reference: a fresh one-engine server answers each query once.
	ref := make(map[string]json.RawMessage, len(mix))
	{
		srv := New(Options{Pool: NewPool(1, 0), Workers: 1})
		c, done := testClient(t, srv)
		for _, q := range mix {
			raw, _, err := c.post(q.path, q.body)
			if err != nil {
				t.Fatalf("serial %s: %v", q.name, err)
			}
			ref[q.name] = raw
		}
		done()
	}

	for _, poolSize := range []int{1, 2, 8} {
		srv := New(Options{Pool: NewPool(poolSize, 0), Workers: poolSize})
		c, done := testClient(t, srv)
		const rounds = 2
		var wg sync.WaitGroup
		errCh := make(chan error, len(mix)*rounds)
		for round := 0; round < rounds; round++ {
			for i, q := range mix {
				wg.Add(1)
				go func(q query, offset int) {
					defer wg.Done()
					// Stagger starts so leases interleave differently per round.
					time.Sleep(time.Duration(offset%4) * time.Millisecond)
					raw, _, err := c.post(q.path, q.body)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(raw, ref[q.name]) {
						errCh <- &mismatchError{q.name, poolSize}
					}
				}(q, i+round*len(mix))
			}
		}
		wg.Wait()
		done()
		close(errCh)
		for err := range errCh {
			t.Errorf("pool=%d: %v", poolSize, err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

type mismatchError struct {
	query string
	pool  int
}

func (e *mismatchError) Error() string {
	return "query " + e.query + " diverged from the serial reference"
}

// TestDrillRestoreThenReuse: an engine that served a failure drill is not
// pooled again — the NIC drill downs a real link, moving the graph off its
// build epoch even after the restore — so the next clean query runs on a
// fresh engine and must match the pre-drill answer byte for byte. An
// unrestored injection is evicted too.
func TestDrillRestoreThenReuse(t *testing.T) {
	t.Parallel()
	pool := NewPool(1, 0)
	cfg := scenario.Config{Fabric: "fat-tree", Iterations: 2, Seed: 1}.WithDefaults()

	runClean := func(want []trainsim.IterStats) []trainsim.IterStats {
		lease, err := pool.Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := lease.Engine.Run(cfg.Iterations)
		lease.Release(err != nil)
		if err != nil {
			t.Fatal(err)
		}
		if want != nil {
			a, _ := json.Marshal(stats)
			b, _ := json.Marshal(want)
			if !bytes.Equal(a, b) {
				t.Fatalf("clean run diverged after drill:\n got %s\nwant %s", a, b)
			}
		}
		return stats
	}

	baseline := runClean(nil)

	// Drill on the pooled engine: inject, run, restore, release.
	inj, ok := scenario.DrillInjector(scenario.FailNIC)
	if !ok {
		t.Fatal("fail-nic is not a drill")
	}
	lease, err := pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Warm {
		t.Fatal("second acquire should reuse the pooled engine")
	}
	restore, err := inj(lease.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lease.Engine.Run(cfg.Iterations); err != nil {
		t.Fatal(err)
	}
	restore()
	lease.Release(false)

	if st := pool.Stats(); st.Evictions != 1 || st.Idle != 0 || st.Restores != 0 {
		t.Fatalf("drilled engine was not evicted: %+v", st)
	}

	// A fresh engine answers the clean query exactly as before.
	runClean(baseline)
	if st := pool.Stats(); st.Misses != 2 || st.Idle != 1 {
		t.Fatalf("post-drill query did not build a fresh engine: %+v", st)
	}

	// Counter-case: an unrestored injection must be caught and evicted.
	lease, err = pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj(lease.Engine); err != nil { // restore discarded on purpose
		t.Fatal(err)
	}
	lease.Release(false)
	if pool.Stats().Evictions != 2 {
		t.Fatal("engine with unreversed failure state was pooled")
	}
	lease, err = pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Warm {
		t.Fatal("acquired the poisoned engine")
	}
	lease.Evict()
}

// TestDifferentDrillAfterRestore: two drills that down the same number of
// links on different servers perform the same number of epoch bumps. The
// first drill's engine must be evicted, so the second runs on a fresh
// engine and stays byte-identical to a fresh engine running the same
// drill — no route recorded under the first drill's downed links survives.
func TestDifferentDrillAfterRestore(t *testing.T) {
	t.Parallel()
	cfg := scenario.Config{Fabric: "fat-tree", Iterations: 2, Seed: 1}.WithDefaults()

	drillStats := func(e *trainsim.Engine, server int) []trainsim.IterStats {
		t.Helper()
		restore, err := failure.FailEPSNICs(e.Cluster, server, 1)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run(cfg.Iterations)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	fresh, err := scenario.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(drillStats(fresh, 1))

	pool := NewPool(1, 0)
	lease, err := pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drillStats(lease.Engine, 0) // downs server 0's NIC links, restores
	lease.Release(false)
	if st := pool.Stats(); st.Restores != 0 || st.Evictions != 1 || st.Idle != 0 {
		t.Fatalf("first drill's engine was not evicted: %+v", st)
	}

	lease, err = pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Warm {
		t.Fatal("second drill reused the drilled engine")
	}
	got, _ := json.Marshal(drillStats(lease.Engine, 1)) // same bump count, different links
	lease.Release(false)
	if !bytes.Equal(got, want) {
		t.Fatalf("second drill diverged from a fresh engine:\n got %s\nwant %s", got, want)
	}
}

// TestComposedDrillAfterNICDrill: serve-level coverage of a drill sequence
// whose two drills down the same number of links (fail-server remaps GPUs
// without touching links). The fail-nic drill's engine is evicted, so the
// composed drill runs on a fresh engine, and the served result must match
// the batch runner byte for byte.
func TestComposedDrillAfterNICDrill(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0), Workers: 1})
	q := failureQuery{
		QueryConfig: QueryConfig{Fabric: "fat-tree", Iterations: 2, Seed: 1},
		Scenario:    scenario.FailNIC,
	}
	if _, _, err := srv.runFailure(q); err != nil {
		t.Fatalf("fail-nic: %v", err)
	}
	if st := srv.pool.Stats(); st.Evictions != 1 || st.Restores != 0 {
		t.Fatalf("fail-nic drill's engine was not evicted: %+v", st)
	}
	q.Scenario = scenario.FailServerNIC
	got, meta, err := srv.runFailure(q)
	if err != nil {
		t.Fatalf("fail-server+fail-nic: %v", err)
	}
	if meta.Warm {
		t.Fatal("composed drill ran on the drilled engine")
	}
	want, err := scenario.Run(scenario.FailServerNIC, q.scenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("served drill diverged from scenario.Run:\n got %s\nwant %s", gb, wb)
	}
}

// TestBaselineCacheBoundAndRetry: the baseline cache must not memoize
// failures (a failed measurement is retried, not replayed forever) and
// must not grow beyond baselineCap in a long-running service.
func TestBaselineCacheBoundAndRetry(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0), Workers: 1})

	bad := scenario.Config{Model: "no-such-model", Iterations: 1}.WithDefaults()
	for i := 0; i < 2; i++ {
		if _, _, err := srv.baseline(bad); err == nil {
			t.Fatal("baseline of an unknown model succeeded")
		}
	}
	srv.baseMu.Lock()
	n := len(srv.baselines)
	srv.baseMu.Unlock()
	if n != 0 {
		t.Fatalf("failed baseline stayed cached (%d cells)", n)
	}

	srv.baseMu.Lock()
	for i := 0; i < baselineCap+16; i++ {
		key := fmt.Sprintf("synthetic-key-%d", i)
		srv.baselines[key] = &baselineCell{done: true}
		srv.touchBaselineLocked(key)
	}
	n, ord := len(srv.baselines), len(srv.baseOrder)
	srv.baseMu.Unlock()
	if n != baselineCap || ord != baselineCap {
		t.Fatalf("cache grew past the bound: %d cells, %d order entries", n, ord)
	}
}

// TestResultCache: a fully identical query replays the stored response
// byte-identically with meta marked cached; differently spelled defaults
// share the entry; no_cache bypasses replay but still matches bitwise.
func TestResultCache(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(2, 0), Workers: 2})
	c, done := testClient(t, srv)
	defer done()

	q := QueryConfig{Fabric: "fat-tree", Iterations: 2, Seed: 5}
	cold, coldMeta, err := c.post("/v1/iter", q)
	if err != nil {
		t.Fatal(err)
	}
	if coldMeta.Cached {
		t.Fatal("first query reported a cache hit")
	}
	hit, hitMeta, err := c.post("/v1/iter", q)
	if err != nil {
		t.Fatal(err)
	}
	if !hitMeta.Cached {
		t.Fatal("identical query missed the result cache")
	}
	if !bytes.Equal(hit, cold) {
		t.Fatalf("cached replay diverged:\n cold %s\n hit  %s", cold, hit)
	}
	// Spelled-out defaults canonicalize onto the same entry.
	spelled := q
	spelled.Model, spelled.FirstA2A, spelled.LinkGbps, spelled.DP = "Mixtral 8x7B", "block", 400, 1
	hit2, meta2, err := c.post("/v1/iter", spelled)
	if err != nil {
		t.Fatal(err)
	}
	if !meta2.Cached || !bytes.Equal(hit2, cold) {
		t.Fatalf("spelled-out defaults did not share the cache entry (cached=%v)", meta2.Cached)
	}
	// no_cache runs the engine; the result must still match bitwise.
	nc := q
	nc.NoCache = true
	fresh, freshMeta, err := c.post("/v1/iter", nc)
	if err != nil {
		t.Fatal(err)
	}
	if freshMeta.Cached {
		t.Fatal("no_cache query reported a cache hit")
	}
	if !bytes.Equal(fresh, cold) {
		t.Fatal("no_cache rerun diverged from the cached result")
	}
	// Failure drills cache too, keyed by scenario.
	fq := failureQuery{QueryConfig: q, Scenario: scenario.FailNIC}
	d1, dMeta1, err := c.post("/v1/failure", fq)
	if err != nil {
		t.Fatal(err)
	}
	d2, dMeta2, err := c.post("/v1/failure", fq)
	if err != nil {
		t.Fatal(err)
	}
	if dMeta1.Cached || !dMeta2.Cached || !bytes.Equal(d1, d2) {
		t.Fatalf("drill caching wrong: first cached=%v second cached=%v", dMeta1.Cached, dMeta2.Cached)
	}
	st := srv.StatsSnapshot()
	if st.ResultCache.Hits < 3 || st.ResultCache.Misses < 2 || st.ResultCache.Entries < 2 {
		t.Fatalf("cache counters off: %+v", st.ResultCache)
	}
}

// TestResultCacheBound: the LRU never grows past resultCap.
func TestResultCacheBound(t *testing.T) {
	t.Parallel()
	srv := New(Options{})
	for i := 0; i < resultCap+16; i++ {
		srv.storeResult(fmt.Sprintf("synthetic-%d", i), i)
	}
	srv.resMu.Lock()
	n, ord := len(srv.results), len(srv.resOrder)
	srv.resMu.Unlock()
	if n != resultCap || ord != resultCap {
		t.Fatalf("result cache grew past the bound: %d entries, %d order entries", n, ord)
	}
	if ev := srv.rcacheEvictions.Load(); ev != 16 {
		t.Fatalf("evictions = %d, want 16", ev)
	}
	// The freshest entries survive.
	if _, ok := srv.cachedResult(fmt.Sprintf("synthetic-%d", resultCap+15)); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := srv.cachedResult("synthetic-0"); ok {
		t.Fatal("oldest entry survived past the cap")
	}
}

// TestServeHTTPErrors: malformed and invalid queries fail loudly with the
// right status codes; the health and stats endpoints respond.
func TestServeHTTPErrors(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0), Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain()
	}()

	get := func(path string) *http.Response {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	post := func(path, body string) *http.Response {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if r := get("/healthz"); r.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", r.StatusCode)
	}
	if r := get("/v1/stats"); r.StatusCode != http.StatusOK {
		t.Errorf("stats: %d", r.StatusCode)
	}
	if r := get("/v1/iter"); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET iter: %d, want 405", r.StatusCode)
	}
	if r := post("/v1/iter", `{"fabrik":"typo"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", r.StatusCode)
	}
	if r := post("/v1/iter", `not json`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: %d, want 400", r.StatusCode)
	}
	if r := post("/v1/iter", `{"model":"no-such-model"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: %d, want 400", r.StatusCode)
	}
	if r := post("/v1/failure", `{"scenario":"synthetic"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("non-drill scenario: %d, want 400", r.StatusCode)
	}
	if r := post("/v1/cost", `{"fabric":"warp-drive","servers":8,"gbps":100}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown fabric: %d, want 400", r.StatusCode)
	}
	// Per-query cost limits: rejected before any engine is acquired.
	for _, body := range []string{
		`{"fabric":"fat-tree","iterations":-1}`,
		fmt.Sprintf(`{"fabric":"fat-tree","iterations":%d}`, maxIterations+1),
		`{"fabric":"fat-tree","dp":-1}`,
		fmt.Sprintf(`{"fabric":"fat-tree","dp":%d}`, maxDP+1),
	} {
		if r := post("/v1/iter", body); r.StatusCode != http.StatusBadRequest {
			t.Errorf("iter %s: %d, want 400", body, r.StatusCode)
		}
		drill := strings.Replace(body, "{", `{"scenario":"fail-nic",`, 1)
		if r := post("/v1/failure", drill); r.StatusCode != http.StatusBadRequest {
			t.Errorf("failure %s: %d, want 400", drill, r.StatusCode)
		}
	}
	if st := srv.pool.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("over-limit queries acquired engines: %+v", st)
	}
	if r := get("/healthz"); r.StatusCode != http.StatusOK {
		t.Errorf("healthz after rejected queries: %d", r.StatusCode)
	}
}

// TestWorkerPanicContained: a query that panics in its worker goroutine
// answers 500 and counts as an error instead of killing the process, and
// its worker slot is freed: the one-worker server still answers the next
// query.
func TestWorkerPanicContained(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0), Workers: 1})
	defer srv.Drain()

	rec := httptest.NewRecorder()
	srv.do(rec, httptest.NewRequest(http.MethodPost, "/v1/iter", nil), func() (any, Meta, error) {
		panic("engine invariant broken")
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking query: %d, want 500", rec.Code)
	}
	if st := srv.StatsSnapshot(); st.Errors != 1 || st.Queries != 1 {
		t.Fatalf("panic not counted: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/cost",
		strings.NewReader(`{"fabric":"mixnet","servers":64,"gbps":400}`)).WithContext(ctx)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query after the panic: %d (%s), want 200", rec.Code, rec.Body)
	}
}

// TestQueryTimeout: a query exceeding the per-query budget returns 504
// while the worker finishes in the background and Drain still completes.
func TestQueryTimeout(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0), Workers: 1, Timeout: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(QueryConfig{Fabric: "fat-tree", Iterations: 2, Seed: 1})
	resp, err := ts.Client().Post(ts.URL+"/v1/iter", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	srv.Drain() // must not hang on the backgrounded worker
	if s := srv.StatsSnapshot(); s.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", s.Timeouts)
	}
}
