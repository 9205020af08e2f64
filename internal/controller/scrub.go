package controller

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/htmlrefs"
	"repro/internal/repair"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// Finding is one corrupt replica a scrub walk caught: site i's stored copy
// of object k failed end-to-end verification.
type Finding struct {
	Site   workload.SiteID
	Object workload.ObjectID
	Reason string
}

// ScrubCycle is one full scrub pass's outcome.
type ScrubCycle struct {
	// Checked counts replicas fetched and verified (down sites are skipped).
	Checked int
	// Clean counts replicas that verified.
	Clean int
	// Corrupt lists the replicas that failed verification.
	Corrupt []Finding
	// Errors counts fetch failures (site unreachable mid-scrub, timeouts) —
	// availability problems for the probe loop, not integrity findings.
	Errors int
	// Repaired reports that the corrupt replicas were re-shipped and
	// re-verified clean this cycle.
	Repaired bool
	// RepairBytes is the anti-entropy traffic: only the corrupt replicas'
	// bytes, never a full re-copy.
	RepairBytes units.ByteSize
}

// fetch retrieves one replica's bytes from the site at base, preallocating
// at most object k's size under w.
func (r *Reconciler) fetch(w *workload.Workload, base string, k workload.ObjectID) ([]byte, error) {
	resp, err := r.fetcher.Get(base + htmlrefs.MOPath(k))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("scrub: GET %s%s: %s", base, htmlrefs.MOPath(k), resp.Status)
	}
	return webserve.ReadBody(resp, int64(w.ObjectSize(k)))
}

// ScrubNow runs one anti-entropy pass. The walk runs outside the lock:
// every replica the live plan claims a live site stores is fetched and
// verified against the workload's payload contract (including provenance —
// a header claiming another source is a finding too). This is the only
// check that catches replica rot and wire corruption, which availability
// probes cannot see. The findings are then handled under the lock (see
// repairFindings). The paper assumes replicas, once placed, stay
// byte-identical to the repository master; this pass enforces that.
func (r *Reconciler) ScrubNow() (*ScrubCycle, error) {
	r.mu.Lock()
	w, p := r.liveEnv.W, r.live
	r.mu.Unlock()

	out := &ScrubCycle{}
	r.cCycles.Inc()
	for i := 0; i < w.NumSites(); i++ {
		site := workload.SiteID(i)
		if r.cluster.SiteDown(i) {
			continue
		}
		base := r.cluster.SiteBases[i]
		p.StoredSet(site).ForEach(func(ki int) bool {
			k := workload.ObjectID(ki)
			out.Checked++
			r.cObjects.Inc()
			data, err := r.fetch(w, base, k)
			if err != nil {
				out.Errors++
				r.cErrors.Inc()
				return true
			}
			if verr := webserve.VerifyObjectFrom(w, i, k, data); verr != nil {
				out.Corrupt = append(out.Corrupt, Finding{Site: site, Object: k, Reason: verr.Error()})
				r.cCorrupt.Inc()
				return true
			}
			out.Clean++
			r.cClean.Inc()
			return true
		})
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.ScrubCycles++
	r.stats.ScrubObjects += out.Checked
	r.stats.ScrubCorrupt += len(out.Corrupt)
	for _, f := range out.Corrupt {
		r.opts.Journal.Record("scrub.corrupt",
			trace.I(trace.AttrSite, int64(f.Site)),
			trace.I(trace.AttrObject, int64(f.Object)),
			trace.A(trace.AttrReason, f.Reason))
		r.logf("scrub: corrupt replica: site %d object %d: %s", f.Site, f.Object, f.Reason)
	}
	if err := r.repairFindings(out); err != nil {
		return out, err
	}
	r.opts.Journal.Record("scrub.cycle",
		trace.I("checked", int64(out.Checked)),
		trace.I("corrupt", int64(len(out.Corrupt))),
		trace.I("errors", int64(out.Errors)))
	return out, nil
}

// repairFindings is the anti-entropy step (mu held). A repair or re-plan
// may have landed mid-walk, so findings for replicas the live plan no
// longer stores are dropped; the rest are pruned from a shadow copy of the
// live plan to price the delta back to it (CopyBytes counts exactly the
// re-shipped replicas), and the live plan — the current desired state,
// never the walk's snapshot — is re-shipped and each replica re-verified.
func (r *Reconciler) repairFindings(out *ScrubCycle) error {
	env, p := r.liveEnv, r.live
	pruned := p.Clone()
	var fixes []Finding
	for _, f := range out.Corrupt {
		if p.IsStored(f.Site, f.Object) {
			pruned.Unstore(f.Site, f.Object)
			fixes = append(fixes, f)
		}
	}
	if len(fixes) == 0 {
		return nil
	}
	delta := repair.ChangeDelta(env, env, pruned, p)
	if err := r.apply(env, p, "scrub", trace.I("copy_bytes", int64(delta.CopyBytes))); err != nil {
		return err
	}
	for _, f := range fixes {
		r.cluster.ClearRot(int(f.Site), f.Object)
	}
	for _, f := range fixes {
		data, err := r.fetch(env.W, r.cluster.SiteBases[f.Site], f.Object)
		if err != nil {
			return fmt.Errorf("scrub: re-verify fetch site %d object %d: %w", f.Site, f.Object, err)
		}
		if verr := webserve.VerifyObjectFrom(env.W, int(f.Site), f.Object, data); verr != nil {
			return fmt.Errorf("scrub: replica still corrupt after repair: site %d object %d: %w",
				f.Site, f.Object, verr)
		}
	}
	out.Repaired = true
	out.RepairBytes = delta.CopyBytes
	r.stats.ScrubRepairs++
	r.stats.RepairBytes += delta.CopyBytes
	r.cScrubs.Inc()
	r.cRepairBytes.Add(int64(delta.CopyBytes))
	r.opts.Journal.Record("scrub.repaired",
		trace.I("replicas", int64(len(fixes))),
		trace.I("copy_bytes", int64(delta.CopyBytes)))
	r.logf("scrub: repaired %d replicas, %d bytes re-shipped", len(fixes), int64(delta.CopyBytes))
	return nil
}
