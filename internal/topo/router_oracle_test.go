package topo

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// refDist is the reference distance field: a full BFS over up links from
// dst, recomputed from scratch on every call, indexed by node storage slot
// (-1 = unreachable). It is the computation BFSRouter's resumable fields
// replace, kept here so the router is checked against code that caches
// nothing.
func refDist(g *Graph, dst NodeID) []int32 {
	d := make([]int32, len(g.Nodes))
	for i := range d {
		d[i] = -1
	}
	di := g.NodeIndex(dst)
	if di < 0 {
		return d
	}
	d[di] = 0
	q := []NodeID{dst}
	for len(q) > 0 {
		n := q[0]
		q = q[1:]
		ni := g.NodeIndex(n)
		for _, lid := range g.in[ni] {
			l := &g.Links[g.LinkIndex(lid)]
			if !l.Up {
				continue
			}
			fi := g.NodeIndex(l.From)
			if d[fi] == -1 {
				d[fi] = d[ni] + 1
				q = append(q, l.From)
			}
		}
	}
	return d
}

// refRouter is the reference router: the distance-field cache BFSRouter
// had before its fields became resumable. Every field is a full refDist,
// all of them are dropped when the graph epoch changes, and on a folded
// graph a field computed before growth is reused for as long as it covers
// the route's source. It has no route cache, and it replays intra-server
// routes off the representative server exactly as BFSRouter does.
type refRouter struct {
	g     *Graph
	epoch uint64
	dist  map[NodeID]*refField
}

type refField struct {
	d      []int32
	growth uint64
}

// sync drops every field unless the graph is still at the stamped epoch.
func (r *refRouter) sync() {
	if r.dist == nil || r.epoch != r.g.Epoch() {
		r.dist, r.epoch = map[NodeID]*refField{}, r.g.Epoch()
	}
}

func (r *refRouter) field(dst NodeID, fresh bool) *refField {
	r.sync()
	f := r.dist[dst]
	if f == nil || fresh {
		f = &refField{d: refDist(r.g, dst), growth: r.g.Growth()}
		r.dist[dst] = f
	}
	return f
}

func (r *refRouter) DistanceField(dst NodeID) []int32 {
	f := r.field(dst, false)
	if f.growth != r.g.Growth() {
		f = r.field(dst, true)
	}
	return f.d
}

// Route walks the per-hop ECMP path with the router's hash.
func (r *refRouter) Route(src, dst NodeID, flowKey uint64) (Route, error) {
	if src == dst {
		return nil, nil
	}
	if rt, ok := r.replay(src, dst, flowKey); ok {
		return rt, nil
	}
	g := r.g
	at := func(f *refField, n NodeID) int32 {
		if i := g.NodeIndex(n); i >= 0 && int(i) < len(f.d) {
			return f.d[i]
		}
		return -1
	}
	f := r.field(dst, false)
	if at(f, src) < 0 && f.growth != g.Growth() {
		f = r.field(dst, true)
	}
	if at(f, src) < 0 {
		return nil, ErrNoRoute
	}
	var route Route
	for cur, hop := src, 0; cur != dst; hop++ {
		var cands []LinkID
		for _, lid := range g.Out(cur) {
			if l := g.Link(lid); l.Up && at(f, l.To) == at(f, cur)-1 {
				cands = append(cands, lid)
			}
		}
		if len(cands) == 0 {
			return nil, ErrNoRoute
		}
		pick := cands[0]
		if len(cands) > 1 {
			pick = cands[hash64(flowKey^hash64(uint64(cur)<<16^uint64(hop)))%uint64(len(cands))]
		}
		route = append(route, pick)
		cur = g.Link(pick).To
	}
	return route, nil
}

// replay translates the representative server's route between the same
// two server-local nodes, when both endpoints lie in one clean server
// other than the representative and the route stays inside the server.
func (r *refRouter) replay(src, dst NodeID, flowKey uint64) (Route, bool) {
	g := r.g
	bn, rep := g.blockNodes, g.blockRep
	if bn == 0 || rep < 0 || src >= NodeID(bn*g.blockCount) || dst >= NodeID(bn*g.blockCount) {
		return nil, false
	}
	s := int32(src) / bn
	if int32(dst)/bn != s || s == rep || g.srvDirty(s) || g.srvDirty(rep) ||
		g.NodeIndex(src) < 0 || g.NodeIndex(dst) < 0 {
		return nil, false
	}
	canon, err := r.Route(src+NodeID((rep-s)*bn), dst+NodeID((rep-s)*bn), flowKey)
	if err != nil {
		return nil, false
	}
	out := make(Route, len(canon))
	for i, lid := range canon {
		if lid < LinkID(rep*g.blockLinks) || lid >= LinkID((rep+1)*g.blockLinks) {
			return nil, false
		}
		out[i] = lid + LinkID((s-rep)*g.blockLinks)
	}
	return out, true
}

// oracle drives a router and the reference over one mutating graph and
// checks that every answer is byte-equal.
type oracle struct {
	t   *testing.T
	rng *rand.Rand
	g   *Graph
	r   *BFSRouter
	ref *refRouter
}

func newOracle(t *testing.T, seed int64, g *Graph) *oracle {
	return &oracle{t: t, rng: rand.New(rand.NewSource(seed)), g: g, r: NewBFSRouter(g), ref: &refRouter{g: g}}
}

func (o *oracle) route(src, dst NodeID, key uint64) {
	o.t.Helper()
	got, gerr := o.r.Route(src, dst, key)
	want, werr := o.ref.Route(src, dst, key)
	if gerr != nil && !errors.Is(gerr, ErrNoRoute) {
		o.t.Fatalf("route %d->%d: %v", src, dst, gerr)
	}
	if (gerr == nil) != (werr == nil) || !slices.Equal(got, want) {
		o.t.Fatalf("route %d->%d key %#x at epoch %d: router %v (%v), reference %v (%v)",
			src, dst, key, o.g.Epoch(), got, gerr, want, werr)
	}
}

func (o *oracle) field(dst NodeID) {
	o.t.Helper()
	if got, want := o.r.DistanceField(dst), o.ref.DistanceField(dst); !slices.Equal(got, want) {
		o.t.Fatalf("distance field to %d at epoch %d:\nrouter    %v\nreference %v", dst, o.g.Epoch(), got, want)
	}
}

// queries checks n random route and distance-field queries between the
// given endpoints. Destinations come from a small hot set, so most queries
// resume a field an earlier one left partial.
func (o *oracle) queries(n int, nodes []NodeID) {
	o.t.Helper()
	hot := nodes
	if len(hot) > 4 {
		hot = make([]NodeID, 4)
		for i := range hot {
			hot[i] = nodes[o.rng.Intn(len(nodes))]
		}
	}
	for i := 0; i < n; i++ {
		dst := hot[o.rng.Intn(len(hot))]
		if o.rng.Intn(8) == 0 {
			o.field(dst)
			continue
		}
		src := nodes[o.rng.Intn(len(nodes))]
		o.route(src, dst, uint64(o.rng.Intn(4)))
	}
}

// materialized lists the graph's materialized node IDs of the given kinds
// (every kind when none is given).
func materialized(g *Graph, kinds ...Kind) []NodeID {
	var out []NodeID
	for i := range g.Nodes {
		if len(kinds) == 0 || slices.Contains(kinds, g.Nodes[i].Kind) {
			out = append(out, g.Nodes[i].ID)
		}
	}
	return out
}

// randomGraph builds a connected random multigraph: a random spanning tree
// of duplex links plus extra duplex and one-way links, which make ECMP
// ties and asymmetric reachability. Node i lies in region i%regions.
func randomGraph(rng *rand.Rand, n, regions int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(KindNIC, "n", -1, -1, i%regions)
	}
	for i := 1; i < n; i++ {
		g.AddDuplex(NodeID(i), NodeID(rng.Intn(i)), Gbps, 0)
	}
	for k := 0; k < n; k++ {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if rng.Intn(3) == 0 {
			g.AddLink(a, b, Gbps, 0)
		} else {
			g.AddDuplex(a, b, Gbps, 0)
		}
	}
	return g
}

// shuffledCircuits returns a random valid circuit assignment for a region:
// the region's OCS ports in random order, paired greedily across distinct
// servers. Ports left without a partner stay dark.
func shuffledCircuits(c *Cluster, region int, rng *rand.Rand) []CircuitPair {
	var ports []NIC
	for _, s := range c.Regions[region] {
		ports = append(ports, c.OCSPorts(s)...)
	}
	rng.Shuffle(len(ports), func(i, j int) { ports[i], ports[j] = ports[j], ports[i] })
	var pairs []CircuitPair
	var open []NIC
	for _, p := range ports {
		matched := false
		for i, q := range open {
			if c.G.Node(q.Node).Server != c.G.Node(p.Node).Server {
				pairs = append(pairs, CircuitPair{A: q.Node, B: p.Node})
				open = slices.Delete(open, i, i+1)
				matched = true
				break
			}
		}
		if !matched {
			open = append(open, p)
		}
	}
	return pairs
}

// a2aPairs lists, for every circuit of a region, the three route pieces a
// delegated all-to-all transfer takes: each GPU of the source server to
// the circuit's near NIC, the circuit hop, and the far NIC to each GPU of
// the destination server.
func a2aPairs(c *Cluster, region int) [][2]NodeID {
	var out [][2]NodeID
	for _, cp := range c.RegionCircuits(region) {
		for _, gpu := range c.Servers[c.G.Node(cp.A).Server].GPUs {
			out = append(out, [2]NodeID{gpu, cp.A})
		}
		out = append(out, [2]NodeID{cp.A, cp.B})
		for _, gpu := range c.Servers[c.G.Node(cp.B).Server].GPUs {
			out = append(out, [2]NodeID{cp.B, gpu})
		}
	}
	return out
}

// TestRouterOracleLinkFlips: random graphs whose links go down and up
// between queries.
func TestRouterOracleLinkFlips(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20+rng.Intn(40), 1)
		o := newOracle(t, seed, g)
		nodes := materialized(g)
		for step := 0; step < 40; step++ {
			o.queries(12, nodes)
			for k := rng.Intn(3); k >= 0; k-- {
				l := g.Link(LinkID(rng.Intn(g.NumLinks())))
				g.SetLinkUp(l.ID, !l.Up)
			}
		}
	}
}

// TestRouterOracleCircuitChurn: random graphs with optical circuits added
// and torn down (per region or all at once) between queries.
func TestRouterOracleCircuitChurn(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20+rng.Intn(30), 3)
		o := newOracle(t, seed, g)
		nodes := materialized(g)
		for step := 0; step < 40; step++ {
			o.queries(12, nodes)
			switch rng.Intn(4) {
			case 0:
				g.RemoveCircuits(rng.Intn(4) - 1)
			default:
				for k := rng.Intn(3); k >= 0; k-- {
					a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
					if a != b {
						g.AddCircuit(a, b, 4*Gbps, 0)
					}
				}
			}
		}
	}
}

// TestRouterOracleMixNetRewire: MixNet fabrics whose regions are rewired
// to random circuit assignments, checked on the gather, circuit and
// scatter routes an all-to-all compiles right after each rewire, plus
// random GPU and NIC pairs across the cluster.
func TestRouterOracleMixNetRewire(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := BuildMixNet(DefaultSpec(16, 100*Gbps))
		o := newOracle(t, seed, c.G)
		ends := materialized(c.G, KindGPU, KindNIC)
		for step := 0; step < 12; step++ {
			region := rng.Intn(len(c.Regions))
			if err := c.SetRegionCircuits(region, shuffledCircuits(c, region, rng)); err != nil {
				t.Fatal(err)
			}
			for _, p := range a2aPairs(c, region) {
				o.route(p[0], p[1], FlowKey(p[0], p[1], uint64(step%3)))
			}
			o.queries(40, ends)
		}
	}
}

// TestRouterOracleFoldedGrowth: folded fat-trees that materialize more
// servers between queries, so fields go stale by growth both complete and
// partially expanded.
func TestRouterOracleFoldedGrowth(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := foldSpec(12)
		spec.Fold = true
		c := BuildFatTree(spec)
		if !c.Folded() {
			t.Fatal("fat-tree did not fold")
		}
		o := newOracle(t, seed, c.G)
		c.Server(rng.Intn(c.NumServers()))
		for step := 0; step < 10; step++ {
			o.queries(20, materialized(c.G, KindGPU, KindNIC))
			c.Server(rng.Intn(c.NumServers()))
		}
	}
}
