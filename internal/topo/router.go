package topo

import (
	"errors"
	"math/bits"
)

// Route is an ordered list of directed link IDs from a source to a
// destination node.
type Route []LinkID

// ErrNoRoute is returned when no path exists (e.g. after failures).
var ErrNoRoute = errors.New("topo: no route")

// Router computes paths over a Graph. flowKey seeds ECMP hashing so
// distinct flows between the same endpoints can take different equal-cost
// paths, while a single flow is stable.
type Router interface {
	Route(src, dst NodeID, flowKey uint64) (Route, error)
}

// BFSRouter is a generic shortest-path ECMP router. It caches per-destination
// distance fields and fully resolved routes, and invalidates both when the
// graph epoch changes, so steady-state Route calls perform zero heap
// allocations.
//
// Distance fields are resumable breadth-first searches: Route expands a
// destination's BFS only as far as the route being walked needs, and later
// calls resume it. Invalidation returns every field's storage to the
// router for reuse rather than dropping it, so routing after a
// reconfiguration allocates no field storage and pays only for the hops it
// walks.
//
// Path selection walks from src towards dst, at each hop choosing among the
// neighbours that strictly decrease the distance to dst, hashed by
// (flowKey, hop, node) — per-hop ECMP as practised in Clos fabrics.
//
// On symmetry-folded graphs the router operates on the quotient: distance
// fields are sized and indexed by storage slot (materialized nodes only),
// refresh lazily when a lookup misses after the graph has grown, and
// intra-server routes are computed once on a representative server and
// replayed — by pure link-ID offset translation — for every identical copy.
type BFSRouter struct {
	G *Graph

	epoch  uint64
	dist   map[NodeID]*distEntry // dst -> resumable BFS towards dst at this epoch
	fields []*distEntry          // field storage; fields[:used] back the entries of dist
	used   int
	routes map[routeKey]Route // resolved paths, keyed by (src, dst, flowKey)
	cands  []LinkID           // per-hop ECMP candidate scratch
}

// distEntry is one resumable BFS towards a destination over incoming up
// links. d holds hop distances indexed by node storage slot (-1 = not
// labeled yet, unreachable, or out of range); q lists the labeled slots in
// BFS order, so their distances never decrease, and q[:head] have been
// expanded. Labels are exact distances, and every node within
// d[q[head]] hops of the destination is labeled. Restarting an entry,
// for the same destination or another, clears only the slots in q.
//
// growth is the graph growth the BFS started at. Materialization never
// changes distances between already-materialized nodes (see Graph.growth),
// so a complete entry of an older growth is still correct for every slot
// it covers and only needs a restart when a route endpoint lies beyond it.
// A partial one restarts at once: its expanded nodes never saw the links
// materialized since.
type distEntry struct {
	d      []int32
	q      []int32
	head   int
	growth uint64
}

// routeKey identifies a cached route. flowKey is part of the key because it
// seeds the per-hop ECMP hash: the same (src, dst) pair takes different
// equal-cost paths under different keys.
type routeKey struct {
	src, dst NodeID
	flow     uint64
}

// NewBFSRouter creates a router over g.
func NewBFSRouter(g *Graph) *BFSRouter {
	return &BFSRouter{G: g, dist: make(map[NodeID]*distEntry), routes: make(map[routeKey]Route)}
}

// Invalidate drops all cached routes and distance fields, keeping the
// fields' storage for the next ones. Callers normally do not need this:
// the caches self-invalidate on graph mutation via the epoch counter.
func (r *BFSRouter) Invalidate() {
	if r.dist == nil {
		r.dist = make(map[NodeID]*distEntry)
	}
	if r.routes == nil {
		r.routes = make(map[routeKey]Route)
	}
	clear(r.dist)
	clear(r.routes)
	r.used = 0
}

// Resync eagerly revalidates the caches against the graph's current epoch,
// dropping them on mismatch. Route and DistanceField do this lazily on
// every call, which is sound while the epoch only moves forward; after
// Graph.RestoreEpoch rewinds it, a later mutation sequence can land the
// graph back on this router's stamped value before any lazy check runs,
// reviving routes recorded under different link state (e.g. a previous
// failure drill's downed links). Callers that rewind the epoch must Resync
// every router over the graph immediately after.
func (r *BFSRouter) Resync() { r.sync() }

// sync invalidates the caches when the graph was mutated.
func (r *BFSRouter) sync() {
	//mixnet:allow growth is covered per entry: distEntry carries its own growth stamp and field/Route restart it when it is stale
	if r.epoch != r.G.Epoch() {
		r.Invalidate()
		r.epoch = r.G.Epoch()
	}
}

// field returns dst's distance field for the current epoch. A new field
// takes the storage of one dropped by the last invalidation when there is
// one. A partial field restarts when the graph has grown since it started;
// a complete field of an older growth is returned as is.
func (r *BFSRouter) field(dst NodeID) *distEntry {
	r.sync()
	e := r.dist[dst]
	switch {
	case e == nil:
		if r.used == len(r.fields) {
			r.fields = append(r.fields, &distEntry{})
		}
		e = r.fields[r.used]
		r.used++
		r.dist[dst] = e
	case e.done() || e.growth == r.G.Growth():
		return e
	}
	r.restart(e, dst)
	return e
}

// restart resets e to a BFS from dst that has expanded nothing yet. It
// clears only the slots the previous search labeled, and reallocates d
// only when the graph has more nodes than e covers. q keeps its capacity:
// it grows only as far as some search through e has labeled.
func (r *BFSRouter) restart(e *distEntry, dst NodeID) {
	g := r.G
	if n := len(g.Nodes); len(e.d) < n {
		e.d = make([]int32, n)
		for i := range e.d {
			e.d[i] = -1
		}
	} else {
		for _, i := range e.q {
			e.d[i] = -1
		}
	}
	e.q = e.q[:0]
	e.head, e.growth = 0, g.Growth()
	if di := g.NodeIndex(dst); di >= 0 {
		e.d[di] = 0
		e.q = append(e.q, di)
	}
}

// done reports whether the BFS has expanded every node it labeled.
//
//mixnet:noalloc
func (e *distEntry) done() bool { return e.head == len(e.q) }

// expand labels the unlabeled up-link predecessors of the next node in BFS
// order.
//
//mixnet:noalloc
func (e *distEntry) expand(g *Graph) {
	ni := e.q[e.head]
	e.head++
	next := e.d[ni] + 1
	// Walk incoming links: we want distance *towards* the destination.
	for _, lid := range g.in[ni] {
		l := &g.Links[g.LinkIndex(lid)]
		if !l.Up {
			continue
		}
		if fi := g.NodeIndex(l.From); e.d[fi] == -1 {
			e.d[fi] = next
			e.q = append(e.q, fi)
		}
	}
}

// reach expands the BFS until src is labeled, which is all a route walk
// from src needs: src got its label from a node one hop nearer the
// destination, and BFS had expanded every node nearer still before that
// one, so every node nearer the destination than src is labeled too. The
// walk only compares labels with distances below src's, and a node it sees
// unlabeled reads -1, which never equals one. Returns src's distance, -1
// when the complete field does not cover it.
//
//mixnet:noalloc
func (e *distEntry) reach(g *Graph, src NodeID) int32 {
	for e.at(g, src) < 0 && !e.done() {
		e.expand(g)
	}
	return e.at(g, src)
}

// at returns n's distance to the entry's destination, -1 when unreachable
// or not covered by the field.
//
//mixnet:noalloc
func (e *distEntry) at(g *Graph, n NodeID) int32 {
	i := g.NodeIndex(n)
	if i < 0 || int(i) >= len(e.d) {
		return -1
	}
	return e.d[i]
}

// DistanceField returns every materialized node's hop distance to dst over
// up links (-1 = unreachable), indexed by node storage slot (== NodeID on
// eager graphs; use Graph.NodeIndex on folded ones). The field is cached
// per destination and completed eagerly, restarting first when the folded
// graph has grown, so it always covers every materialized node. Treat it
// as read-only, and do not hold it across a graph mutation or growth: the
// router then reuses the slice for a recomputed field, possibly another
// destination's. It
// exposes the ECMP structure Route samples from, so callers (e.g. the
// analytic netsim backend) can enumerate a hop's equal-cost candidates
// instead of committing to one sampled path.
func (r *BFSRouter) DistanceField(dst NodeID) []int32 {
	e := r.field(dst)
	if e.growth != r.G.Growth() {
		r.restart(e, dst)
	}
	for !e.done() {
		e.expand(r.G)
	}
	return e.d
}

// hash64 mixes inputs with a splitmix64-style finaliser.
//
//mixnet:noalloc
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Route implements Router. The returned Route may be shared with the
// router's cache and other callers with the same (src, dst, flowKey):
// treat it as read-only.
func (r *BFSRouter) Route(src, dst NodeID, flowKey uint64) (Route, error) {
	if src == dst {
		return nil, nil
	}
	r.sync()
	key := routeKey{src, dst, flowKey}
	if rt, ok := r.routes[key]; ok {
		return rt, nil
	}
	if rt, ok := r.replayIntraServer(src, dst, flowKey); ok {
		r.routes[key] = rt
		return rt, nil
	}
	g := r.G
	e := r.field(dst)
	ds := e.reach(g, src)
	if ds < 0 && e.growth != g.Growth() {
		// The complete field predates src's materialization.
		r.restart(e, dst)
		ds = e.reach(g, src)
	}
	if ds < 0 {
		return nil, ErrNoRoute
	}
	// From here every node on a shortest src->dst path is covered by e:
	// such nodes lie in src's pod, dst's pod/server, or the eagerly built
	// core plane, all materialized no later than src and dst themselves.
	d := e.d
	route := make(Route, 0, ds)
	cur := src
	ci := g.NodeIndex(cur)
	hop := 0
	for cur != dst {
		want := d[ci] - 1
		// Gather candidate links that strictly approach dst.
		cands := r.cands[:0]
		for _, lid := range g.out[ci] {
			l := &g.Links[g.LinkIndex(lid)]
			if !l.Up {
				continue
			}
			ti := g.NodeIndex(l.To)
			if int(ti) < len(d) && d[ti] == want {
				cands = append(cands, lid)
			}
		}
		r.cands = cands[:0]
		if len(cands) == 0 {
			return nil, ErrNoRoute
		}
		var pick LinkID
		if len(cands) == 1 {
			pick = cands[0]
		} else {
			h := hash64(flowKey ^ hash64(uint64(cur)<<16^uint64(hop)))
			pick = cands[h%uint64(len(cands))]
		}
		route = append(route, pick)
		cur = g.Link(pick).To
		ci = g.NodeIndex(cur)
		hop++
		if hop > len(g.Nodes) {
			return nil, errors.New("topo: routing loop")
		}
	}
	r.routes[key] = route
	return route, nil
}

// replayIntraServer answers routes between two nodes of the same server by
// translating the representative server's route by a link-ID offset.
// Internal server paths are structurally unique (every NIC hangs off one
// hub, every GPU off the one NVSwitch), so the replay is exact — no ECMP
// hash ever fires on them. Disabled for servers whose links were mutated
// (failures, circuits) and when no block layout is recorded.
func (r *BFSRouter) replayIntraServer(src, dst NodeID, flowKey uint64) (Route, bool) {
	g := r.G
	bn := g.blockNodes
	if bn == 0 || g.blockRep < 0 {
		return nil, false
	}
	limit := NodeID(bn * g.blockCount)
	if src >= limit || dst >= limit {
		return nil, false
	}
	s := int32(src) / bn
	if int32(dst)/bn != s {
		return nil, false
	}
	rep := g.blockRep
	if s == rep || g.srvDirty(s) || g.srvDirty(rep) {
		return nil, false
	}
	if g.NodeIndex(src) < 0 || g.NodeIndex(dst) < 0 {
		return nil, false // unmaterialized endpoints: no links to translate to
	}
	off := NodeID((rep - s) * bn)
	canon, err := r.Route(src+off, dst+off, flowKey)
	if err != nil {
		return nil, false
	}
	bl := g.blockLinks
	lo, hi := LinkID(rep*bl), LinkID((rep+1)*bl)
	out := make(Route, len(canon))
	delta := LinkID((s - rep) * bl)
	for i, lid := range canon {
		if lid < lo || lid >= hi {
			// The canonical route left the server block (shouldn't happen
			// for intra-server pairs); fall back to a direct computation.
			return nil, false
		}
		out[i] = lid + delta
	}
	return out, true
}

// PathLatency sums propagation latency along a route.
//
//mixnet:noalloc
func PathLatency(g *Graph, rt Route) float64 {
	var s float64
	for _, id := range rt {
		s += g.Link(id).Latency
	}
	return s
}

// PathMinBandwidth returns the bottleneck capacity along a route
// (+Inf semantics: returns 0 for an empty route).
//
//mixnet:noalloc
func PathMinBandwidth(g *Graph, rt Route) float64 {
	if len(rt) == 0 {
		return 0
	}
	m := g.Link(rt[0]).Bps
	for _, id := range rt[1:] {
		if b := g.Link(id).Bps; b < m {
			m = b
		}
	}
	return m
}

// FlowKey builds a stable ECMP key from a (src, dst, salt) triple.
//
//mixnet:noalloc
func FlowKey(src, dst NodeID, salt uint64) uint64 {
	return hash64(uint64(src)<<32 | uint64(uint32(dst))&0xffffffff ^ bits.RotateLeft64(salt, 17))
}
