package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"mixnet"
	"mixnet/internal/scenario"
)

// TestPoolModel is a model-based check of engine reuse: a seeded random
// sequence of iteration and failure-drill queries over both fabrics runs
// on one single-engine-per-shape pool, and every answer must be byte-equal
// to a fresh engine's (mixnet.Simulate, which builds through
// scenario.NewEngine, for iterations; scenario.Run for drills). Midway, an
// engine leased straight from the pool takes a fail-gpu injection that is
// never restored and is released as sound; the pool must evict it, and the
// next query of that shape must still match. After every step, each pooled
// engine must sit at its shape's build epoch.
func TestPoolModel(t *testing.T) {
	t.Parallel()
	const steps = 24
	kinds := []string{"iter", scenario.FailNIC, scenario.FailServer, scenario.FailServerNIC, scenario.FailGPU}
	fabrics := []string{"fat-tree", "mixnet"}
	rng := rand.New(rand.NewSource(1))
	srv := New(Options{Pool: NewPool(1, 0), Workers: 1})

	refs := make(map[string][]byte)
	reference := func(kind string, q QueryConfig) []byte {
		t.Helper()
		key := fmt.Sprintf("%s|%s|%d|%d", kind, q.Fabric, q.Seed, q.Iterations)
		if b, ok := refs[key]; ok {
			return b
		}
		var b []byte
		var err error
		if kind == "iter" {
			var res mixnet.Result
			if res, err = simulateDirect(q); err == nil {
				b, err = json.Marshal(res)
			}
		} else {
			b, err = runScenarioDirect(failureQuery{QueryConfig: q, Scenario: kind})
		}
		if err != nil {
			t.Fatal(err)
		}
		refs[key] = b
		return b
	}
	ask := func(kind string, q QueryConfig) {
		t.Helper()
		var got any
		var err error
		if kind == "iter" {
			got, _, err = srv.runIter(q)
		} else {
			got, _, err = srv.runFailure(failureQuery{QueryConfig: q, Scenario: kind})
		}
		if err != nil {
			t.Fatalf("%s %+v: %v", kind, q, err)
		}
		if b, _ := json.Marshal(got); !bytes.Equal(b, reference(kind, q)) {
			t.Fatalf("%s %+v diverged from a fresh engine:\n got %s\nwant %s", kind, q, b, reference(kind, q))
		}
	}

	poisonAt := rng.Intn(steps)
	for step := 0; step < steps; step++ {
		q := QueryConfig{
			Fabric:     fabrics[rng.Intn(len(fabrics))],
			Iterations: 1 + rng.Intn(2),
			Seed:       1 + rng.Int63n(2),
			NoCache:    true,
		}
		kind := kinds[rng.Intn(len(kinds))]
		if step == poisonAt {
			// fail-gpu leaves the graph at its build epoch, so only the
			// Pristine check stands between this engine and the next query.
			kind = "iter"
			lease, err := srv.pool.Acquire(q.scenarioConfig())
			if err != nil {
				t.Fatal(err)
			}
			inj, _ := scenario.DrillInjector(scenario.FailGPU)
			if _, err := inj(lease.Engine); err != nil {
				t.Fatal(err)
			}
			before := srv.pool.Stats().Evictions
			lease.Release(false)
			if st := srv.pool.Stats(); st.Evictions != before+1 {
				t.Fatalf("unrestored injection was pooled: %+v", st)
			}
		}
		ask(kind, q)
		srv.pool.mu.Lock()
		for key, entry := range srv.pool.shapes {
			for _, e := range entry.idle {
				if e.Cluster.G.Epoch() != entry.memoEpoch {
					t.Errorf("step %d: %s pooled an engine off its build epoch", step, key)
				}
			}
		}
		srv.pool.mu.Unlock()
		if t.Failed() {
			t.FailNow()
		}
	}
	st := srv.pool.Stats()
	if st.Restores != 0 || st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("sequence did not exercise reuse and eviction: %+v", st)
	}
}
