package trainsim

import (
	"errors"

	"mixnet/internal/collective"
	"mixnet/internal/moe"
	"mixnet/internal/predict"
)

// Engine reuse for the long-running query service (cmd/mixnet-serve): a
// warm engine skips topology construction and placement entirely, and —
// when its graph still sits at the build epoch — replays cached routes and
// memoized collective compilations from earlier queries. PrepareRun rewinds
// exactly the per-run state (gate randomness, flow/salt counters, overlap
// window) so a reused engine's results are byte-identical to a freshly
// built one's. Graph state is the pool layer's concern: it re-pools an
// engine only while its graph still sits at the build epoch, so a reused
// engine never carries a mutated topology into its next run.

// Pristine reports whether the engine carries no failure or override state:
// no GPU/server remaps, no TP-over-EPS charges, and no servers excluded
// from circuit planning. A pooled engine must be pristine before reuse —
// leftover overrides would silently skew every later query.
func (e *Engine) Pristine() bool {
	if len(e.gpuOverride) != 0 || len(e.tpPenalty) != 0 || e.tpTracked != 0 || e.tpOverEPS != 0 {
		return false
	}
	if e.controller != nil && e.controller.FailedServers() != 0 {
		return false
	}
	return true
}

// PrepareRun rewinds the engine's per-run state so the next Run replays as
// if the engine had just been built with Options.GateSeed = gateSeed: the
// synthetic gate is rebuilt (same construction as New), Copilot estimators
// restart untrained, the cross-iteration overlap window is discarded, and
// the collective context's flow-ID and ECMP-salt counters rewind. Warm
// state deliberately survives: cached routes, memoized compilations and
// grown scratch buffers are the reuse a pooled engine exists for, and none
// of them influence results — only speed.
//
// It errors on engines with an external iteration source (a trace cannot
// be reseeded) or unreversed failure state; callers should evict such
// engines rather than reuse them.
func (e *Engine) PrepareRun(gateSeed int64) error {
	if e.Opts.Source != nil {
		return errors.New("trainsim: PrepareRun on an engine with an external iteration source")
	}
	if !e.Pristine() {
		return errors.New("trainsim: PrepareRun on an engine with unreversed failure state")
	}
	cfg := moe.DefaultGateConfig(gateSeed)
	if e.Opts.GateCfg != nil {
		cfg = *e.Opts.GateCfg
	}
	e.Opts.GateSeed = gateSeed
	e.Gate = moe.NewGateSim(e.Model, e.Plan, cfg)
	if e.estimators != nil {
		for i := range e.estimators {
			e.estimators[i] = predict.NewEstimator(e.Model.Experts, 16)
		}
	}
	e.iter = 0
	e.reconfigs = 0
	e.havePrev = false
	e.peeked = false
	e.nextIt = nil
	e.prefix = prefixSteps{c: -1, b: -1, a: -1}
	e.carry = prefixCarry{}
	e.pend = pendingIter{}
	e.reconfigLog = e.reconfigLog[:0]
	e.ctx.ResetRunState()
	return nil
}

// AttachSharedMemo points the engine's collective compilations at a
// cross-engine compile cache (collective.NewSharedMemo), so a warm query
// replays plans another engine of the same shape recorded. The shared memo
// is consulted only while the graph sits at the memo's pinned epoch; see
// collective.Ctx.SetSharedMemo for the contract. Errors on incompletely
// materialized folded clusters: a replayed plan may reference links this
// engine has not materialized, and replay skips the routing that would
// materialize them.
func (e *Engine) AttachSharedMemo(m *collective.Memo) error {
	if m != nil && e.Cluster.Folded() && e.Cluster.MaterializedServers() != e.Cluster.NumServers() {
		return errors.New("trainsim: shared memo on a partially materialized folded cluster")
	}
	e.ctx.SetSharedMemo(m)
	return nil
}

// MemoStats returns the engine's cumulative compile-cache counters (hits
// prove a query skipped compilation). Safe only between runs — the
// counters are written by the run itself.
func (e *Engine) MemoStats() collective.MemoStats { return e.ctx.MemoStats() }
