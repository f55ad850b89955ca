// Package serve is the long-running what-if query service: an HTTP/JSON
// API answering iteration-time, network-cost and failure-drill queries
// over the same engine construction path as mixnet.Simulate and the
// scenario runner, with cross-query reuse — a keyed pool of warm engines
// per configuration shape and a shared, bounded collective compile memo —
// so repeat queries skip topology construction and collective compilation
// entirely. Responses are byte-identical to the equivalent batch CLI run;
// the pool and memo only change how fast they are produced.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mixnet/internal/collective"
	"mixnet/internal/scenario"
	"mixnet/internal/trainsim"
)

// Pool keeps warm trainsim engines keyed by configuration shape — every
// scenario.Config field except the per-query Seed, Iterations and Trace —
// plus one shared compile memo per shape, pinned to the shape's build
// epoch. Acquire hands out exclusive leases (an engine never serves two
// queries at once); Release pools an engine again only if its graph never
// left the build epoch, so one query's failure drill or circuit
// retargeting can never skew a later query.
type Pool struct {
	mu     sync.Mutex
	shapes map[string]*shapeEntry

	// maxIdle bounds idle engines kept per shape; memoCap bounds each
	// shape's shared compile memo.
	maxIdle, memoCap int

	hits, misses, evictions atomic.Uint64
}

// shapeEntry is one configuration shape's idle engines and shared caches.
type shapeEntry struct {
	idle []*trainsim.Engine // every one at its build epoch
	memo *collective.Memo   // shared compile cache; nil until first build
	// memoEpoch is the build epoch the shared memo is pinned to; identical
	// builds land on identical epochs, and an engine whose build diverges
	// (defensive: should be impossible) simply does not attach.
	memoEpoch uint64
}

// Lease is an exclusively held engine. Exactly one of Release or Evict
// must be called when the query is done.
type Lease struct {
	Engine *trainsim.Engine
	Warm   bool // true when the engine came from the pool, not a fresh build
	p      *Pool
	shape  string
	epoch  uint64 // the engine's build epoch, recorded at Acquire
}

// PoolStats is a point-in-time snapshot of pool effectiveness counters.
type PoolStats struct {
	Hits      uint64 `json:"hits"`      // queries served by a warm engine
	Misses    uint64 `json:"misses"`    // queries that paid a full build
	Evictions uint64 `json:"evictions"` // engines retired instead of pooled
	Restores  uint64 `json:"restores"`  // always 0: the pool never restores a mutated graph
	Idle      int    `json:"idle"`      // engines currently pooled
	Shapes    int    `json:"shapes"`    // distinct configuration shapes seen
}

// NewPool creates an engine pool. maxIdle <= 0 defaults to 8 idle engines
// per shape, memoCap <= 0 to the collective package's default memo bound.
func NewPool(maxIdle, memoCap int) *Pool {
	if maxIdle <= 0 {
		maxIdle = 8
	}
	return &Pool{shapes: make(map[string]*shapeEntry), maxIdle: maxIdle, memoCap: memoCap}
}

// ShapeKey canonicalizes a configuration to its engine-shape identity:
// defaults applied, with the per-query knobs (Seed, Iterations, Trace)
// zeroed, so two queries differing only in those share warm engines.
func ShapeKey(cfg scenario.Config) string {
	c := cfg.WithDefaults()
	c.Seed = 0
	c.Iterations = 0
	c.Trace = nil
	return fmt.Sprintf("m=%s|f=%s|b=%s|cc=%s|w=%d|batch=%t|gbps=%g|dp=%d|a2a=%s|rd=%g|fold=%t|ov=%s",
		c.Model, c.Fabric, c.Backend, c.CC, c.Workers, c.Batch, c.LinkGbps,
		c.DP, c.FirstA2A, c.ReconfigDelaySec, c.Fold, c.Overlap)
}

// Acquire leases an engine for cfg's shape, reusing a pooled one when
// available (PrepareRun rewinds it to cfg.Seed) or building fresh. The
// caller owns the engine exclusively until Release/Evict.
func (p *Pool) Acquire(cfg scenario.Config) (*Lease, error) {
	cfg = cfg.WithDefaults()
	key := ShapeKey(cfg)
	p.mu.Lock()
	entry := p.shapes[key]
	if entry == nil {
		entry = &shapeEntry{}
		p.shapes[key] = entry
	}
	for len(entry.idle) > 0 {
		e := entry.idle[len(entry.idle)-1]
		entry.idle = entry.idle[:len(entry.idle)-1]
		p.mu.Unlock()
		if err := e.PrepareRun(cfg.Seed); err != nil {
			// Unreusable (an external iteration source): drop it and try
			// the next idle engine.
			p.evictions.Add(1)
			p.mu.Lock()
			continue
		}
		p.hits.Add(1)
		return &Lease{Engine: e, Warm: true, p: p, shape: key, epoch: e.Cluster.G.Epoch()}, nil
	}
	p.mu.Unlock()

	e, err := scenario.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	l := &Lease{Engine: e, p: p, shape: key, epoch: e.Cluster.G.Epoch()}
	p.attachSharedMemo(entry, l)
	p.misses.Add(1)
	return l, nil
}

// attachSharedMemo wires a freshly built engine to its shape's shared
// compile memo, creating the memo on the shape's first build. Attachment
// is best-effort: engines whose build epoch diverges from the memo's pin
// (impossible for deterministic builds; checked defensively) or whose
// folded cluster is not fully materialized simply run on their private
// memo.
func (p *Pool) attachSharedMemo(entry *shapeEntry, l *Lease) {
	p.mu.Lock()
	if entry.memo == nil {
		entry.memo = collective.NewSharedMemo(p.memoCap, l.epoch)
		entry.memoEpoch = l.epoch
	}
	memo, epoch := entry.memo, entry.memoEpoch
	p.mu.Unlock()
	if epoch != l.epoch {
		return
	}
	_ = l.Engine.AttachSharedMemo(memo) // error = partially materialized fold: keep private memo
}

// Release returns a leased engine to the pool when it is exactly as built:
// not damaged (the caller knows the engine is unsound, e.g. its run
// failed), Pristine (no leftover failure overrides) and with its graph
// still at the build epoch recorded at Acquire. Every graph mutation —
// a failure drill's link flips, even if undone, or the OCS controller
// retargeting circuits — moves the epoch, so such engines are evicted and
// the next query builds a fresh one, which lands on the same build epoch
// and still hits the shared compile memo.
func (l *Lease) Release(damaged bool) {
	p, e := l.p, l.Engine
	l.p, l.Engine = nil, nil
	if p == nil {
		return
	}
	if damaged || !e.Pristine() || e.Cluster.G.Epoch() != l.epoch {
		p.evictions.Add(1)
		return
	}
	p.mu.Lock()
	entry := p.shapes[l.shape]
	if entry == nil || len(entry.idle) >= p.maxIdle {
		p.mu.Unlock()
		p.evictions.Add(1)
		return
	}
	entry.idle = append(entry.idle, e)
	p.mu.Unlock()
}

// Evict discards the leased engine unconditionally.
func (l *Lease) Evict() {
	p := l.p
	l.p, l.Engine = nil, nil
	if p != nil {
		p.evictions.Add(1)
	}
}

// Stats snapshots the pool counters. Safe to call concurrently with
// queries.
func (p *Pool) Stats() PoolStats {
	s := PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
	}
	p.mu.Lock()
	s.Shapes = len(p.shapes)
	for _, k := range p.shapeKeysLocked() {
		s.Idle += len(p.shapes[k].idle)
	}
	p.mu.Unlock()
	return s
}

// shapeKeysLocked returns the shape keys in sorted order; p.mu must be held.
func (p *Pool) shapeKeysLocked() []string {
	keys := make([]string, 0, len(p.shapes))
	for k := range p.shapes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MemoStats aggregates the shared compile memos across shapes. Safe to
// call concurrently with queries (the memo counters are atomic).
func (p *Pool) MemoStats() collective.MemoStats {
	p.mu.Lock()
	memos := make([]*collective.Memo, 0, len(p.shapes))
	for _, k := range p.shapeKeysLocked() {
		if m := p.shapes[k].memo; m != nil {
			memos = append(memos, m)
		}
	}
	p.mu.Unlock()
	var out collective.MemoStats
	for _, m := range memos {
		ms := m.Stats()
		out.Hits += ms.Hits
		out.Misses += ms.Misses
		out.Bypasses += ms.Bypasses
	}
	return out
}
