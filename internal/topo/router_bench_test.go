package topo

import (
	"math/rand"
	"testing"
)

// benchFabric builds a small fat-tree with real ECMP fan-out.
func benchFabric() *Cluster {
	return BuildFatTree(DefaultSpec(16, 100*Gbps))
}

func BenchmarkRouteCached(b *testing.B) {
	c := benchFabric()
	r := NewBFSRouter(c.G)
	src, dst := c.GPU(0, 0), c.GPU(15, 7)
	if _, err := r.Route(src, dst, 7); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(src, dst, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteCold(b *testing.B) {
	c := benchFabric()
	r := NewBFSRouter(c.G)
	src, dst := c.GPU(0, 0), c.GPU(15, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Invalidate()
		if _, err := r.Route(src, dst, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// reconfigFabric builds a MixNet fabric and two circuit assignments for
// region 0 to rewire between.
func reconfigFabric() (*Cluster, [2][]CircuitPair) {
	c := BuildMixNet(DefaultSpec(16, 100*Gbps))
	rng := rand.New(rand.NewSource(1))
	return c, [2][]CircuitPair{shuffledCircuits(c, 0, rng), shuffledCircuits(c, 0, rng)}
}

// routeAll routes every pair, keyed as a flow between its endpoints.
func routeAll(tb testing.TB, r *BFSRouter, pairs [][2]NodeID) {
	for _, p := range pairs {
		if _, err := r.Route(p[0], p[1], FlowKey(p[0], p[1], 0)); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkRouteAfterReconfig is the controller's per-layer step: rewire
// one region, then route the gather, circuit and scatter pairs an
// all-to-all over that region compiles.
func BenchmarkRouteAfterReconfig(b *testing.B) {
	c, cfgs := reconfigFabric()
	r := NewBFSRouter(c.G)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SetRegionCircuits(0, cfgs[i%2]); err != nil {
			b.Fatal(err)
		}
		routeAll(b, r, a2aPairs(c, 0))
	}
}

// TestRouteAfterEpochBumpAllocs guards the resumable distance fields: once
// every field has been built, routing again after an epoch bump allocates
// the returned routes and nothing else: stale fields are reset in place,
// not reallocated.
func TestRouteAfterEpochBumpAllocs(t *testing.T) {
	c, cfgs := reconfigFabric()
	if err := c.SetRegionCircuits(0, cfgs[0]); err != nil {
		t.Fatal(err)
	}
	r := NewBFSRouter(c.G)
	pairs := a2aPairs(c, 0)
	// A link no pair routes over: flipping it down and up bumps the epoch
	// twice without changing any route.
	spare := c.G.Out(c.Servers[len(c.Servers)-1].GPUs[0])[0]
	bump := func() {
		c.G.SetLinkUp(spare, false)
		c.G.SetLinkUp(spare, true)
	}
	bump()
	routeAll(t, r, pairs)
	allocs := testing.AllocsPerRun(10, func() {
		bump()
		routeAll(t, r, pairs)
	})
	if allocs > float64(len(pairs)) {
		t.Errorf("routing %d pairs after an epoch bump allocates %v objects/run, want at most one per route", len(pairs), allocs)
	}
}

// TestRouteCachedZeroAllocs guards the router half of the tentpole: a
// steady-state Route call (warm distance field and route cache) must not
// allocate.
func TestRouteCachedZeroAllocs(t *testing.T) {
	c := benchFabric()
	r := NewBFSRouter(c.G)
	src, dst := c.GPU(0, 0), c.GPU(15, 7)
	if _, err := r.Route(src, dst, 7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Route(src, dst, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached Route allocates %v objects/run, want 0", allocs)
	}
}

// TestRouteCacheInvalidatesOnMutation proves cached routes do not survive
// graph mutation: downing a link on the cached path must reroute.
func TestRouteCacheInvalidatesOnMutation(t *testing.T) {
	c := benchFabric()
	r := NewBFSRouter(c.G)
	src, dst := c.GPU(0, 0), c.GPU(15, 7)
	rt, err := r.Route(src, dst, 7)
	if err != nil {
		t.Fatal(err)
	}
	mid := rt[len(rt)/2]
	c.G.SetLinkUp(mid, false)
	rt2, err := r.Route(src, dst, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, lid := range rt2 {
		if lid == mid {
			t.Fatalf("rerouted path still uses downed link %d", mid)
		}
	}
	c.G.SetLinkUp(mid, true)
}

// TestSetDuplexUpOddOffset regresses the ab^1 partner-lookup bug: a duplex
// pair allocated at an odd LinkID offset must still flip both directions.
func TestSetDuplexUpOddOffset(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "a", -1, -1, -1)
	b := g.AddNode(KindNIC, "b", -1, -1, -1)
	x := g.AddNode(KindNIC, "x", -1, -1, -1)
	g.AddLink(x, a, Gbps, 0) // link 0: shifts the duplex pair to IDs (1, 2)
	ab, ba := g.AddDuplex(a, b, Gbps, 0)
	if ab%2 != 1 {
		t.Fatalf("test setup: pair not at odd offset (ab=%d)", ab)
	}
	for _, start := range []LinkID{ab, ba} {
		g.SetDuplexUp(start, false)
		if g.Link(ab).Up || g.Link(ba).Up {
			t.Fatalf("SetDuplexUp(%d, false): up=%v,%v, want both down",
				start, g.Link(ab).Up, g.Link(ba).Up)
		}
		g.SetDuplexUp(start, true)
		if !g.Link(ab).Up || !g.Link(ba).Up {
			t.Fatalf("SetDuplexUp(%d, true): up=%v,%v, want both up",
				start, g.Link(ab).Up, g.Link(ba).Up)
		}
	}
}

// TestSetDuplexUpParallelRails pins the multi-rail case: two duplex pairs
// between the same endpoints must flip as pairs, never across rails.
func TestSetDuplexUpParallelRails(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "a", -1, -1, -1)
	b := g.AddNode(KindNIC, "b", -1, -1, -1)
	ab1, ba1 := g.AddDuplex(a, b, Gbps, 0)
	ab2, ba2 := g.AddDuplex(a, b, Gbps, 0)
	g.SetDuplexUp(ba1, false) // second ID of rail 1
	if g.Link(ab1).Up || g.Link(ba1).Up {
		t.Errorf("rail 1 not fully down: up=%v,%v", g.Link(ab1).Up, g.Link(ba1).Up)
	}
	if !g.Link(ab2).Up || !g.Link(ba2).Up {
		t.Errorf("rail 2 disturbed: up=%v,%v, want both up", g.Link(ab2).Up, g.Link(ba2).Up)
	}
	g.SetDuplexUp(ba1, true)
	g.SetDuplexUp(ab2, false) // first ID of rail 2
	if g.Link(ab2).Up || g.Link(ba2).Up {
		t.Errorf("rail 2 not fully down: up=%v,%v", g.Link(ab2).Up, g.Link(ba2).Up)
	}
	if !g.Link(ab1).Up || !g.Link(ba1).Up {
		t.Errorf("rail 1 disturbed: up=%v,%v, want both up", g.Link(ab1).Up, g.Link(ba1).Up)
	}
}
