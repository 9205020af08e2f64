// Package controller is the single plan authority for a live cluster. One
// Reconciler owns the base plan and the down set, and it is the only code
// that ships a placement to the cluster. Three observers feed it, each on
// its own ticker so a slow one never delays another:
//
//   - the probe loop (HealLoop) checks every site's /healthz and drives a
//     per-site state machine (up → suspect → down → recovering → up);
//   - the drift loop (AdaptLoop) compares a streaming frequency estimate
//     against the traffic the base plan was built from and re-plans when
//     the drift is actionable — the re-run the paper's §4.1 prescribes;
//   - the scrub loop (ScrubLoop) walks every stored replica and verifies
//     its self-describing payload end to end.
//
// The desired state is a function of (base, down set): the base plan when
// every site is up, otherwise the base plan repaired over the down set
// (repair.Compute). The base starts as the construction plan and only a
// drift re-plan replaces it, so a recovery reinstates the current base and
// an adapt cycle during an outage is repaired before it ships. Observers
// sense concurrently; the reconciler decides and applies under one lock
// through one Cluster.ApplyPlan call site, and every apply bumps a
// generation number journaled on the plan.applied event.
//
// Detection is K-of-N: a site must fail FailThreshold consecutive probes
// before it is declared down (one lost probe makes it suspect, not dead),
// and must answer OKThreshold consecutive probes before a recovery is
// attempted — both thresholds damp flapping.
package controller

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// SiteState is one site's position in the probe state machine.
type SiteState int

const (
	// Up: the site answers probes and serves its (possibly repaired) pages.
	Up SiteState = iota
	// Suspect: at least one probe failed, fewer than FailThreshold in a row.
	Suspect
	// Down: FailThreshold consecutive probes failed; the site's pages are
	// re-homed by the active repair plan.
	Down
	// Recovering: a down site answered OKThreshold consecutive probes; the
	// reconciler is reinstating a placement that uses it again.
	Recovering
)

func (s SiteState) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("SiteState(%d)", int(s))
	}
}

// Transition is one recorded state change.
type Transition struct {
	At   time.Duration // since New
	Site workload.SiteID
	From SiteState
	To   SiteState
}

// Loops is a set of observer loops.
type Loops uint8

const (
	// HealLoop probes every site's /healthz and repairs around dead sites.
	HealLoop Loops = 1 << iota
	// AdaptLoop drift-checks the streamed estimate and re-plans on drift.
	AdaptLoop
	// ScrubLoop walks and verifies every stored replica and re-ships rot.
	ScrubLoop
)

// Options tunes the reconciler and its observers.
type Options struct {
	// ProbeInterval is the health-check period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default ProbeInterval).
	ProbeTimeout time.Duration
	// FailThreshold is K: consecutive failed probes before a site is
	// declared down (default 3).
	FailThreshold int
	// OKThreshold is the consecutive successful probes a down site must
	// answer before recovery (default 2).
	OKThreshold int
	// LatencyThreshold, when positive, arms limping-node detection: a probe
	// that answers 200 but whose EWMA round-trip time exceeds the threshold
	// counts as a *failed* probe, so a site that is up-but-crawling walks
	// the same suspect → down path as a dead one instead of hiding behind
	// its 200s. Zero (the default) keeps any-200-is-healthy.
	LatencyThreshold time.Duration
	// LatencyAlpha is the EWMA smoothing factor in (0, 1] for the per-site
	// probe-latency estimate (default 0.3). Higher values react faster but
	// flap more on one slow probe; the EWMA exists precisely so a single
	// GC pause does not condemn a healthy site.
	LatencyAlpha float64
	// AdaptInterval is the drift-check period of AdaptLoop (default 1s).
	AdaptInterval time.Duration
	// ScrubInterval is the scrub period of ScrubLoop (default 2s).
	ScrubInterval time.Duration
	// Workers bounds repair and re-planning concurrency (0 = GOMAXPROCS);
	// plans are identical at any width.
	Workers int
	// Metrics, when non-nil, receives the hosted loops' counters and gauges
	// (controller.*, adapt.*, scrub.*).
	Metrics *telemetry.Registry
	// Log, when non-nil, receives one line per transition, plan push,
	// drift verdict and scrub finding.
	Log io.Writer
	// Journal, when non-nil, is the control-plane flight recorder: probe
	// transitions, repair plans, drift checks, scrub findings, every
	// plan.applied push (mode and generation) and loop errors land in it as
	// structured events. On a loop error the journal is additionally dumped
	// to Log, so the recorder's tail survives the failure it explains.
	// Share one journal with webserve.ClusterOptions to expose it at
	// /debug/journal.
	Journal *trace.Journal
}

func (o Options) normalize() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.OKThreshold <= 0 {
		o.OKThreshold = 2
	}
	if o.LatencyAlpha <= 0 || o.LatencyAlpha > 1 {
		o.LatencyAlpha = 0.3
	}
	if o.AdaptInterval <= 0 {
		o.AdaptInterval = time.Second
	}
	if o.ScrubInterval <= 0 {
		o.ScrubInterval = 2 * time.Second
	}
	return o
}

// Stats is a snapshot of the reconciler's lifetime tallies.
type Stats struct {
	// Generation counts the placements applied to the cluster: one per
	// plan.applied journal event.
	Generation int
	// Repairs and Recoveries count the probe-driven pushes.
	Repairs, Recoveries int
	// Checks, Triggers, Replans and Noops count drift checks and their
	// outcomes; CopyBytes is the re-plan traffic shipped.
	Checks, Triggers, Replans, Noops int
	CopyBytes                        units.ByteSize
	// ScrubCycles, ScrubObjects, ScrubCorrupt and ScrubRepairs count scrub
	// passes, replicas verified, corrupt findings and re-ships;
	// RepairBytes is the anti-entropy traffic shipped.
	ScrubCycles, ScrubObjects, ScrubCorrupt, ScrubRepairs int
	RepairBytes                                           units.ByteSize
}

// Reconciler is the plan authority for one cluster. Use Start/Stop for the
// observer loops, or AdaptNow/ScrubNow for synchronous one-shot cycles.
type Reconciler struct {
	cluster *webserve.Cluster
	est     *estimate.Estimator
	opts    Options
	probe   *http.Client
	fetcher *http.Client
	start   time.Time
	stop    chan struct{}
	loops   sync.WaitGroup

	mu      sync.Mutex
	baseEnv *model.Env       // environment the base plan was built from
	base    *model.Placement // the desired placement while every site is up
	liveEnv *model.Env       // the last applied pair: always the desired state
	live    *model.Placement
	repair  *repair.Plan       // active repair plan; nil while no site is down
	det     *estimate.Detector // drift baseline; nil without an estimator
	states  []SiteState
	fails   []int
	oks     []int
	ewma    []float64 // smoothed probe RTT per site, seconds; 0 = no sample yet
	lastRTT []float64 // last raw probe RTT per site, seconds
	trans   []Transition
	stats   Stats
	lastErr error

	cProbes, cProbeFails, cProbesShed, cRepairs, cRecoveries, cTransitions *telemetry.Counter
	cChecks, cTriggers, cReplans, cNoops, cCopyBytes                       *telemetry.Counter
	cCycles, cObjects, cClean, cCorrupt, cErrors, cScrubs, cRepairBytes    *telemetry.Counter
	gDown, gDriftL1                                                        *telemetry.Gauge
}

// scrubTimeout bounds each scrub verification fetch.
const scrubTimeout = 5 * time.Second

// New builds the reconciler for a running cluster. env and p are the
// planning environment and placement the cluster was started with — the
// initial base plan. hosted names the loops this reconciler runs (their
// telemetry is registered up front, so /metrics lists it from the first
// scrape); AdaptLoop needs est, the estimator wired into the cluster as its
// access tap.
func New(env *model.Env, p *model.Placement, cluster *webserve.Cluster, est *estimate.Estimator, hosted Loops, opts Options) (*Reconciler, error) {
	opts = opts.normalize()
	n := env.W.NumSites()
	r := &Reconciler{
		cluster: cluster,
		est:     est,
		opts:    opts,
		probe:   &http.Client{Timeout: opts.ProbeTimeout},
		fetcher: &http.Client{Timeout: scrubTimeout},
		start:   time.Now(),
		baseEnv: env,
		base:    p,
		liveEnv: env,
		live:    p,
		states:  make([]SiteState, n),
		fails:   make([]int, n),
		oks:     make([]int, n),
		ewma:    make([]float64, n),
		lastRTT: make([]float64, n),
	}
	if hosted&AdaptLoop != 0 {
		if est == nil {
			return nil, fmt.Errorf("controller: the adapt loop needs an estimator")
		}
		det, err := estimate.NewDetector(estimate.BaselineVector(env.W), estimate.DetectorConfig{})
		if err != nil {
			return nil, err
		}
		r.det = det
	}
	reg := opts.Metrics
	if reg == nil {
		return r, nil
	}
	if hosted&HealLoop != 0 {
		r.cProbes = reg.Counter("controller.probes")
		r.cProbeFails = reg.Counter("controller.probe_failures")
		r.cProbesShed = reg.Counter("controller.probes_shed")
		r.cRepairs = reg.Counter("controller.repairs")
		r.cRecoveries = reg.Counter("controller.recoveries")
		r.cTransitions = reg.Counter("controller.transitions")
		r.gDown = reg.Gauge("controller.sites_down")
	}
	if hosted&AdaptLoop != 0 {
		r.cChecks = reg.Counter("adapt.checks")
		r.cTriggers = reg.Counter("adapt.triggers")
		r.cReplans = reg.Counter("adapt.replans")
		r.cNoops = reg.Counter("adapt.noops")
		r.cCopyBytes = reg.Counter("adapt.copy_bytes")
		r.gDriftL1 = reg.Gauge("adapt.drift_l1")
	}
	if hosted&ScrubLoop != 0 {
		r.cCycles = reg.Counter("scrub.cycles")
		r.cObjects = reg.Counter("scrub.objects")
		r.cClean = reg.Counter("scrub.clean")
		r.cCorrupt = reg.Counter("scrub.corrupt")
		r.cErrors = reg.Counter("scrub.errors")
		r.cScrubs = reg.Counter("scrub.repairs")
		r.cRepairBytes = reg.Counter("scrub.repair_bytes")
	}
	return r, nil
}

// Start launches the given observer loops, each on its own ticker. Calling
// it again adds loops; Stop ends them all.
func (r *Reconciler) Start(loops Loops) {
	if r.stop == nil {
		r.stop = make(chan struct{})
	}
	if loops&HealLoop != 0 {
		r.every(r.opts.ProbeInterval, r.tick)
	}
	if loops&AdaptLoop != 0 {
		r.every(r.opts.AdaptInterval, func() {
			if _, err := r.AdaptNow(time.Since(r.start).Seconds()); err != nil {
				r.fail("adapt.error", err)
			}
		})
	}
	if loops&ScrubLoop != 0 {
		r.every(r.opts.ScrubInterval, func() {
			if _, err := r.ScrubNow(); err != nil {
				r.fail("scrub.error", err)
			}
		})
	}
}

// every runs step once per period until Stop.
func (r *Reconciler) every(period time.Duration, step func()) {
	stop := r.stop
	r.loops.Add(1)
	go func() {
		defer r.loops.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				step()
			}
		}
	}()
}

// Stop ends every running loop and waits for them to exit. It is a no-op
// before Start and after an earlier Stop.
func (r *Reconciler) Stop() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	r.loops.Wait()
	r.stop = nil
}

// tick probes every site once and feeds the state machine.
func (r *Reconciler) tick() {
	n := len(r.cluster.SiteBases)
	ok := make([]bool, n)
	rtt := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok[i], rtt[i] = r.probeSite(i)
		}(i)
	}
	wg.Wait()
	r.observe(ok, rtt)
}

// probeSite performs one /healthz check and reports its round-trip time
// (meaningful only when ok).
func (r *Reconciler) probeSite(i int) (bool, time.Duration) {
	r.cProbes.Inc()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, r.cluster.SiteBases[i]+"/healthz", nil)
	if err != nil {
		r.cProbeFails.Inc()
		return false, 0
	}
	t0 := time.Now()
	resp, err := r.probe.Do(req)
	if err != nil {
		r.cProbeFails.Inc()
		return false, 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	rtt := time.Since(t0)
	if resp.StatusCode == http.StatusTooManyRequests {
		// An admission shed is a live server policing its queue, not a
		// failure. Treating it as one would kill-and-repair exactly the
		// overloaded sites — the feedback loop that turns a flash crowd
		// into an outage.
		r.cProbesShed.Inc()
		return true, rtt
	}
	if resp.StatusCode != http.StatusOK {
		r.cProbeFails.Inc()
		return false, 0
	}
	return true, rtt
}

// observe advances every site's state machine on one probe round and, if
// any site crossed the down or recovered edge, reconciles under the same
// lock — so no reader ever sees a site Down while pages still route to it.
// A 200 whose EWMA-smoothed RTT exceeds LatencyThreshold is demoted to a
// failed probe — the limping-node signal: a site can answer health checks
// forever while serving data at a crawl.
func (r *Reconciler) observe(ok []bool, rtt []time.Duration) {
	r.mu.Lock()
	now := time.Since(r.start)
	edge := false
	for i := range ok {
		if ok[i] {
			rs := rtt[i].Seconds()
			r.lastRTT[i] = rs
			if r.ewma[i] == 0 {
				r.ewma[i] = rs
			} else {
				a := r.opts.LatencyAlpha
				r.ewma[i] = a*rs + (1-a)*r.ewma[i]
			}
			if r.opts.LatencyThreshold > 0 && r.ewma[i] > r.opts.LatencyThreshold.Seconds() {
				ok[i] = false // healthy answer, unhealthy latency: limping
				r.cProbeFails.Inc()
			}
		}
		st := r.states[i]
		switch {
		case ok[i]:
			r.fails[i] = 0
			switch st {
			case Suspect:
				r.setState(i, Up, now)
			case Down:
				r.oks[i]++
				if r.oks[i] >= r.opts.OKThreshold {
					r.setState(i, Recovering, now)
					edge = true
				}
			}
		default:
			r.oks[i] = 0
			switch st {
			case Up:
				r.fails[i] = 1
				r.setState(i, Suspect, now)
			case Suspect:
				r.fails[i]++
				if r.fails[i] >= r.opts.FailThreshold {
					r.setState(i, Down, now)
					edge = true
				}
			case Recovering:
				// Flapped during recovery: back to down.
				r.setState(i, Down, now)
			}
		}
	}
	var err error
	if edge {
		err = r.reconcile()
	}
	r.mu.Unlock()
	if err != nil {
		r.fail("supervisor.error", err)
	}
}

// setState records a transition (mu held). The journal event carries the
// site's latency picture (last raw probe RTT and its EWMA, milliseconds) so
// a limping-driven demotion is explainable post-hoc: a down transition with
// a healthy-looking RTT means timeouts, one with a fat EWMA means limping.
func (r *Reconciler) setState(i int, to SiteState, at time.Duration) {
	from := r.states[i]
	if from == to {
		return
	}
	r.states[i] = to
	r.trans = append(r.trans, Transition{At: at, Site: workload.SiteID(i), From: from, To: to})
	r.cTransitions.Inc()
	r.opts.Journal.Record("probe.transition",
		trace.I(trace.AttrSite, int64(i)),
		trace.A("from", from.String()),
		trace.A("to", to.String()),
		trace.F("rtt_ms", r.lastRTT[i]*1e3),
		trace.F("ewma_ms", r.ewma[i]*1e3))
	r.logf("controller: t=%v site %d: %v -> %v (rtt %.2fms ewma %.2fms)",
		at.Round(time.Millisecond), i, from, to, r.lastRTT[i]*1e3, r.ewma[i]*1e3)
}

// down lists the sites in the Down state (mu held).
func (r *Reconciler) down() []workload.SiteID {
	var down []workload.SiteID
	for i, st := range r.states {
		if st == Down {
			down = append(down, workload.SiteID(i))
		}
	}
	return down
}

// desired is the desired state for a base plan and a down set: the base
// itself when no site is down, otherwise the base repaired over the down
// set (with the repair plan that produced it).
func (r *Reconciler) desired(env *model.Env, p *model.Placement, down []workload.SiteID) (*model.Env, *model.Placement, *repair.Plan, error) {
	if len(down) == 0 {
		return env, p, nil, nil
	}
	plan, err := repair.Compute(env, p, down, repair.Options{Workers: r.opts.Workers, Journal: r.opts.Journal})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("controller: repair plan: %w", err)
	}
	return plan.Env, plan.Placement, plan, nil
}

// apply is the one path that ships a placement to the cluster (mu held).
// Every cause — repair, recovery, adapt, scrub — lands here, bumps the
// generation and journals plan.applied with the cause as its mode. Being
// the only writer, it needs no compare-and-swap against the live plan.
func (r *Reconciler) apply(env *model.Env, p *model.Placement, mode string, attrs ...trace.Attr) error {
	if err := r.cluster.ApplyPlan(env.W, p); err != nil {
		return fmt.Errorf("controller: %s apply: %w", mode, err)
	}
	r.liveEnv, r.live = env, p
	r.stats.Generation++
	r.opts.Journal.Record("plan.applied", append([]trace.Attr{
		trace.A("mode", mode), trace.I("generation", int64(r.stats.Generation))}, attrs...)...)
	return nil
}

// reconcile drives the cluster to the desired state after a down-set edge
// (mu held). Sites in Recovering move to Up once the push lands.
func (r *Reconciler) reconcile() error {
	down := r.down()
	r.gDown.Set(float64(len(down)))
	env, p, plan, err := r.desired(r.baseEnv, r.base, down)
	if err != nil {
		return err
	}
	if plan == nil {
		err = r.apply(env, p, "recovery", trace.I("sites_down", 0))
	} else {
		err = r.apply(env, p, "repair",
			trace.I("sites_down", int64(len(down))),
			trace.I("rehomed", int64(len(plan.Delta.Rehomed))))
	}
	if err != nil {
		return err
	}
	r.repair = plan
	now := time.Since(r.start)
	for i, st := range r.states {
		if st == Recovering {
			// Full or partial recovery: the fresh desired state no longer
			// re-homes this site's pages.
			r.setState(i, Up, now)
		}
	}
	if plan == nil {
		r.stats.Recoveries++
		r.cRecoveries.Inc()
		r.opts.Journal.Record("controller.recovered")
		r.logf("controller: recovered: healthy placement reinstated")
		return nil
	}
	r.stats.Repairs++
	r.cRepairs.Inc()
	r.logf("controller: repaired: %d sites down, %d pages re-homed, D %.4f -> %.4f (degraded %.4f)",
		len(down), len(plan.Delta.Rehomed), plan.Delta.DHealthy, plan.Delta.DAfter, plan.Delta.DBefore)
	return nil
}

// fail records a loop error (visible via Err) without killing the loop, and
// dumps the journal's tail to Log — the flight recorder's whole point is
// explaining this moment.
func (r *Reconciler) fail(event string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastErr = err
	r.opts.Journal.Record(event, trace.A(trace.AttrReason, err.Error()))
	r.logf("%v", err)
	if r.opts.Journal != nil && r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "controller: journal dump (%d events, %d dropped):\n",
			len(r.opts.Journal.Events()), r.opts.Journal.Dropped())
		_ = r.opts.Journal.WriteText(r.opts.Log)
	}
}

// logf writes one line to Log (mu held, so loops never interleave lines).
func (r *Reconciler) logf(format string, args ...interface{}) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, format+"\n", args...)
	}
}

// States snapshots the per-site states.
func (r *Reconciler) States() []SiteState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SiteState(nil), r.states...)
}

// Transitions snapshots the recorded transitions.
func (r *Reconciler) Transitions() []Transition {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Transition(nil), r.trans...)
}

// ActiveRepair returns the active repair plan, nil while no site is down.
func (r *Reconciler) ActiveRepair() *repair.Plan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.repair
}

// Base returns the base plan: the environment and placement the cluster
// serves whenever every site is up.
func (r *Reconciler) Base() (*model.Env, *model.Placement) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.baseEnv, r.base
}

// Stats snapshots the lifetime tallies.
func (r *Reconciler) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Latency returns site i's last raw probe RTT and its EWMA estimate
// (zero until the first successful probe).
func (r *Reconciler) Latency(i int) (last, ewma time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.lastRTT[i] * float64(time.Second)),
		time.Duration(r.ewma[i] * float64(time.Second))
}

// Err returns the last loop error, nil if none.
func (r *Reconciler) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// WaitFor polls until pred over the state snapshot holds or the timeout
// expires; it reports whether the predicate was met. A test/CLI helper —
// the loops themselves never block on it.
func (r *Reconciler) WaitFor(pred func([]SiteState) bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if pred(r.States()) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(r.opts.ProbeInterval / 4)
	}
}
