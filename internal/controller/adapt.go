package controller

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/trace"
)

// Cycle is one drift check's outcome.
type Cycle struct {
	// Decision is the detector's verdict on this check.
	Decision estimate.Decision
	// Replanned reports that a new base plan shipped to the cluster.
	Replanned bool
	// Noop reports that the detector triggered but re-planning produced a
	// placement identical to the base, so nothing shipped.
	Noop bool
	// Delta is the base-to-base change summary; nil when the detector did
	// not trigger. On a re-plan, Delta.CopyBytes is the bytes-moved cost
	// journaled for the adaptation.
	Delta *repair.Delta
}

// AdaptNow runs one synchronous drift cycle at estimator time t (seconds):
// snapshot the estimate, check drift against the traffic the base plan was
// built from, and — when the detector triggers — re-plan against the
// re-estimated workload. A changed plan becomes the new base and the
// desired state is shipped: the base itself, or the base repaired over the
// current down set, so an adaptation during an outage never routes pages
// to a dead site. An unchanged placement is recognized and never re-copied
// (placement targets are CDN-style clusters). Safe to call concurrently
// with the loops.
func (r *Reconciler) AdaptNow(t float64) (*Cycle, error) {
	if r.det == nil {
		return nil, fmt.Errorf("controller: drift check without an estimator")
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	snap := r.est.Snapshot(t)
	dec, err := r.det.Check(snap.FreqVector(r.baseEnv.W.NumPages()))
	if err != nil {
		return nil, fmt.Errorf("controller: drift check: %w", err)
	}
	r.stats.Checks++
	r.cChecks.Inc()
	r.gDriftL1.Set(dec.L1)
	r.opts.Journal.Record("adapt.check",
		trace.F("l1", dec.L1),
		trace.F("topk_churn", dec.TopKChurn),
		trace.A("trigger", fmt.Sprint(dec.Trigger)))
	out := &Cycle{Decision: dec}
	if !dec.Trigger {
		return out, nil
	}
	r.stats.Triggers++
	r.cTriggers.Inc()
	r.logf("adapt: drift trigger: L1=%.3f topk=%.2f, re-planning", dec.L1, dec.TopKChurn)

	// Re-estimate the workload from the snapshot and re-plan against it.
	w2, err := snap.EstimateWorkload(r.baseEnv.W)
	if err != nil {
		return nil, fmt.Errorf("controller: re-estimate: %w", err)
	}
	env2, err := model.NewEnv(w2, r.baseEnv.Est, r.baseEnv.Budgets)
	if err != nil {
		return nil, fmt.Errorf("controller: re-estimated env: %w", err)
	}
	env2.Alpha1, env2.Alpha2 = r.baseEnv.Alpha1, r.baseEnv.Alpha2
	fresh, _, err := core.Plan(env2, core.Options{Workers: r.opts.Workers})
	if err != nil {
		return nil, fmt.Errorf("controller: re-plan: %w", err)
	}

	delta := repair.ChangeDelta(r.baseEnv, env2, r.base, fresh)
	out.Delta = &delta

	// Only ship a delta: an unchanged placement (no new replicas, no
	// flipped local/remote marks) must cost zero bytes and zero churn. The
	// base stays as it is, so the desired state does not move either.
	diff, err := model.Diff(r.base, fresh)
	if err != nil {
		return nil, fmt.Errorf("controller: plan diff: %w", err)
	}
	if !diff.Changed() {
		r.stats.Noops++
		r.cNoops.Inc()
		r.det.Rebase(estimate.BaselineVector(w2))
		r.opts.Journal.Record("adapt.noop",
			trace.F("l1", dec.L1),
			trace.F("d_stale", delta.DBefore))
		r.logf("adapt: re-plan is a no-op (placement unchanged), baseline rebased")
		out.Noop = true
		return out, nil
	}

	env, p, plan, err := r.desired(env2, fresh, r.down())
	if err != nil {
		return nil, err
	}
	if err := r.apply(env, p, "adapt", trace.I("copy_bytes", int64(delta.CopyBytes))); err != nil {
		return nil, err
	}
	r.baseEnv, r.base, r.repair = env2, fresh, plan
	r.stats.Replans++
	r.stats.CopyBytes += delta.CopyBytes
	r.cReplans.Inc()
	r.cCopyBytes.Add(int64(delta.CopyBytes))
	r.det.Rebase(estimate.BaselineVector(w2))
	r.opts.Journal.Record("adapt.replanned",
		trace.I("copy_bytes", int64(delta.CopyBytes)),
		trace.F("d_stale", delta.DBefore),
		trace.F("d_after", delta.DAfter))
	r.logf("adapt: adapted: D %.4f -> %.4f, %d bytes copied",
		delta.DBefore, delta.DAfter, int64(delta.CopyBytes))
	out.Replanned = true
	return out, nil
}
