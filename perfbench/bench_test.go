package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/trainsim"
)

// TestTimedBackendIdentical drains the same plans on the plain fluid
// backend and on the timing wrapper: every step makespan and every flow's
// Finish field must match bit for bit, and so must the query results.
func TestTimedBackendIdentical(t *testing.T) {
	for _, fabric := range fabrics {
		c := config{Kind: "iter", Fabric: fabric, Seed: 3}
		m, plan, err := moe.PlanFor(moe.Mixtral8x7B.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		engines := [2]*trainsim.Engine{}
		for i := range engines {
			cl := buildCluster(fabric, plan)
			if engines[i], err = trainsim.New(m, plan, cl, engineOptions(c)); err != nil {
				t.Fatal(err)
			}
		}
		plain, err := netsim.NewWithOptions("", "", 0, false)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := netsim.NewWithOptions("", "", 0, false)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(time.Now())
		timed := &timedBackend{inner: inner, rec: rec}
		for it := 0; it < iterations; it++ {
			for i, b := range []netsim.Backend{plain, timed} {
				e := engines[i]
				if err := e.BeginIteration(); err != nil {
					t.Fatal(err)
				}
				if err := e.CommPlan().Execute(e.Cluster.G, b, false); err != nil {
					t.Fatal(err)
				}
			}
			a, b := engines[0].CommPlan().Steps(), engines[1].CommPlan().Steps()
			if len(a) != len(b) {
				t.Fatalf("%s: %d steps vs %d", fabric, len(a), len(b))
			}
			for s := range a {
				if math.Float64bits(a[s].Makespan) != math.Float64bits(b[s].Makespan) {
					t.Errorf("%s iter %d step %d: makespan %v vs %v", fabric, it, s, a[s].Makespan, b[s].Makespan)
				}
				for p := range a[s].Phases {
					for f := range a[s].Phases[p] {
						fa, fb := a[s].Phases[p][f].Finish, b[s].Phases[p][f].Finish
						if math.Float64bits(fa) != math.Float64bits(fb) {
							t.Fatalf("%s iter %d step %d flow %d: finish %v vs %v", fabric, it, s, f, fa, fb)
						}
					}
				}
			}
			for _, e := range engines {
				if _, err := e.FinishIteration(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if timed.calls == 0 || len(rec.spans) != timed.calls {
			t.Errorf("%s: %d backend calls, %d spans", fabric, timed.calls, len(rec.spans))
		}

		untraced, _, _, _, err := simQuery(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, _, _, _, err := simQuery(c, newRecorder(time.Now()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(untraced, traced) {
			t.Errorf("%s: traced query result differs from untraced", fabric)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{99, 0.90, 90, false},
		{100, 0.90, 90, true},
		{19, 0.50, 10, false},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

// TestTallyCountsFailures answers queries from a fake service that refuses
// one, errors on one and returns a wrong result for one; with the client
// transport failing on another, tally must count exactly those four.
func TestTallyCountsFailures(t *testing.T) {
	good := []byte(`{"mean":1}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var q struct{ Seed int64 }
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch q.Seed {
		case 1:
			http.Error(w, "queue wait cancelled", http.StatusServiceUnavailable)
		case 2:
			http.Error(w, "boom", http.StatusInternalServerError)
		case 3:
			w.Write([]byte(`{"result":{"mean":2},"meta":{}}`))
		default:
			w.Write([]byte(`{"result":` + string(good) + `,"meta":{"elapsed_sec":0.5}}`))
		}
	}))
	defer srv.Close()
	cl := newClient(srv.URL)
	defer cl.close()
	want := map[string][32]byte{}
	var outs []outcome
	for s := int64(1); s <= 5; s++ {
		c := config{Kind: "iter", Fabric: "mixnet", Seed: s}
		want[c.key()] = sha256.Sum256(good)
		outs = append(outs, cl.ask(c, true))
	}
	dead := newClient("http://127.0.0.1:1")
	outs = append(outs, dead.ask(config{Kind: "iter", Fabric: "mixnet", Seed: 4}, true))
	if got := tally(outs, want); got != 4 {
		t.Errorf("tally = %d failed, want 4 (refused, erroring, mismatched, unreachable)", got)
	}
	if outs[3].engine != 0.5 {
		t.Errorf("engine seconds = %v, want 0.5 from meta.elapsed_sec", outs[3].engine)
	}
	// A configuration that failed verification is absent from want: its
	// answers count as failed even when they agree with each other.
	delete(want, outs[4].cfg.key())
	if got := tally(outs[3:5], want); got != 1 {
		t.Errorf("tally with an unverified configuration = %d failed, want 1", got)
	}
}

func TestServeGenDeterministic(t *testing.T) {
	a, b := newServeGens(7), newServeGens(7)
	kinds := map[string]int{}
	for i := 0; i < 1000; i++ {
		for c := range a {
			qa, na := a[c].query()
			qb, nb := b[c].query()
			if qa != qb || na != nb {
				t.Fatalf("client %d query %d: %+v vs %+v", c, i, qa, qb)
			}
			kinds[qa.Kind]++
		}
	}
	for kind, share := range map[string]float64{"iter": 0.7, "failure": 0.2, "cost": 0.1} {
		if got := float64(kinds[kind]) / 2000; math.Abs(got-share) > 0.05 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, share)
		}
	}
}

// TestServeWorkload runs a short traced serve-mixed phase (about 100
// queries): both clients share the loop, the attempt counter and the
// service, and every answer must match its reference.
func TestServeWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	rr, err := runServe(1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.outs) == 0 || len(rr.spans) == 0 {
		t.Fatalf("%d queries, %d spans", len(rr.outs), len(rr.spans))
	}
	want, problems := verifyAll(distinct(rr.outs), nil)
	if len(problems) > 0 {
		t.Fatal(problems)
	}
	if failed := tally(rr.outs, want); failed != 0 {
		t.Errorf("%d of %d queries failed", failed, len(rr.outs))
	}
	if rr.layers["serve.pool_hit_ratio"] == 0 || rr.layers["serve.result_cache_hit_ratio"] == 0 {
		t.Errorf("pool or result cache unused: %v", rr.layers)
	}
}
