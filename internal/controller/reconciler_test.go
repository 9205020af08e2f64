package controller

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// rotSurvivors rots up to three replicas on each of sites 1 and 2 that the
// plan stores both healthy and repaired around a dead site 0, so the rot is
// still live while site 0 is down.
func rotSurvivors(t *testing.T) func(*model.Env, *model.Placement) *faults.Plan {
	return func(env *model.Env, p *model.Placement) *faults.Plan {
		rp, err := repair.Compute(env, p, []workload.SiteID{0}, repair.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan := &faults.Plan{Seed: 5, Sites: make([]faults.Spec, env.W.NumSites())}
		for _, i := range []workload.SiteID{1, 2} {
			for _, k := range p.StoredSet(i).Members() {
				if rp.Placement.IsStored(i, workload.ObjectID(k)) && len(plan.Sites[i].Rot) < 3 {
					plan.Sites[i].Rot = append(plan.Sites[i].Rot, k)
				}
			}
		}
		return plan
	}
}

// checkInvariants asserts the reconciler's contract: no page routes to a
// down site, the live placement is the desired state computed from (base,
// down set), and the generation counts the plan.applied events, each
// carrying the next generation number.
func checkInvariants(t *testing.T, step string, r *Reconciler, cluster *webserve.Cluster, journal *trace.Journal) {
	t.Helper()
	states := r.States()
	var down []workload.SiteID
	for i, st := range states {
		if st == Down {
			down = append(down, workload.SiteID(i))
		}
	}
	w, live := cluster.CurrentPlan()
	for j := range w.Pages {
		if to := cluster.Route(workload.PageID(j)); states[to] == Down {
			t.Fatalf("%s: page %d routed to down site %d", step, j, to)
		}
	}
	baseEnv, want := r.Base()
	if len(down) > 0 {
		rp, err := repair.Compute(baseEnv, want, down, repair.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want = rp.Placement
	}
	if !live.Equal(want) {
		t.Fatalf("%s: live placement is not the desired state for down set %v", step, down)
	}
	applied := 0
	for _, ev := range journal.Events() {
		if ev.Type == "plan.applied" {
			applied++
			if g := ev.Field("generation"); g != strconv.Itoa(applied) {
				t.Fatalf("%s: plan.applied #%d carries generation %q", step, applied, g)
			}
		}
	}
	if gen := r.Stats().Generation; gen != applied || journal.Dropped() != 0 {
		t.Fatalf("%s: generation %d, %d plan.applied events (%d dropped)", step, gen, applied, journal.Dropped())
	}
}

// TestReconcilerComposedInvariants drives all three observers against one
// cluster, step by step and deterministically: synthetic probe rounds, an
// estimator feed plus a drift check, and scrub cycles with replica rot
// armed. A seeded interleaving overlaps a site kill, a hot-set rotation and
// the rot, and the reconciler's invariants are checked after every step.
func TestReconcilerComposedInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			env, p, cluster, est := adaptEnv(t, 0.3, rotSurvivors(t))
			defer cluster.Close()
			journal := trace.NewJournal(4096)
			r := mustNew(t, env, p, cluster, est, HealLoop|AdaptLoop|ScrubLoop, Options{
				FailThreshold: 3, OKThreshold: 2, Workers: 1, Journal: journal,
			})

			killed := false
			clock := 0.0
			var adaptedDown, scrubbedDown bool
			steps := map[string]func(){
				"probe": func() {
					ok := []bool{!killed, true, true}
					r.observe(ok, make([]time.Duration, len(ok)))
				},
				"baseline": func() {
					clock++
					observeBaseline(env.W, est, clock)
					if _, err := r.AdaptNow(clock); err != nil {
						t.Fatal(err)
					}
				},
				"flash": func() {
					clock++
					observeFlashCrowd(env.W, est, clock)
					cyc, err := r.AdaptNow(clock)
					if err != nil {
						t.Fatal(err)
					}
					adaptedDown = adaptedDown || (cyc.Replanned && r.States()[0] == Down)
				},
				"scrub": func() {
					cyc, err := r.ScrubNow()
					if err != nil {
						t.Fatal(err)
					}
					scrubbedDown = scrubbedDown || (cyc.Repaired && r.States()[0] == Down)
				},
			}
			stream := rng.New(seed)
			run := func(phase string, kinds ...string) {
				stream.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
				for n, kind := range kinds {
					steps[kind]()
					checkInvariants(t, fmt.Sprintf("%s step %d (%s)", phase, n, kind), r, cluster, journal)
				}
			}

			run("healthy", "probe", "probe", "baseline")
			if err := cluster.KillSite(0); err != nil {
				t.Fatal(err)
			}
			killed = true
			run("detect", "probe", "probe", "probe")
			run("outage", "probe", "probe", "probe", "flash", "flash", "scrub", "scrub")
			if err := cluster.RestartSite(0); err != nil {
				t.Fatal(err)
			}
			killed = false
			run("recovery", "probe", "probe", "probe", "flash", "scrub")

			// The interleaving really composed the loops: an adapt re-plan
			// and a rot repair both landed during the outage, and the
			// recovery reinstated the adapted base, not the construction plan.
			if !adaptedDown || !scrubbedDown {
				t.Fatalf("outage saw adapt re-plan=%v, scrub repair=%v; want both", adaptedDown, scrubbedDown)
			}
			st := r.Stats()
			if st.Repairs != 1 || st.Recoveries != 1 || st.Replans != 1 {
				t.Fatalf("stats %+v: want 1 repair, 1 recovery, 1 re-plan", st)
			}
			if _, base := r.Base(); base.Equal(p) {
				t.Fatal("base is still the construction plan after a re-plan")
			}
			if states := r.States(); states[0] != Up {
				t.Fatalf("site 0 never recovered: %v", states)
			}
		})
	}
}

// TestScrubDropsStaleFindings pins the scrub hand-off: a finding for a
// replica the live plan no longer stores (a repair or re-plan landed
// mid-walk) is dropped, and nothing is shipped for it.
func TestScrubDropsStaleFindings(t *testing.T) {
	penv, p := healEnv(t)
	cluster, err := webserve.StartCluster(penv.W, p)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	r := mustNew(t, penv, p, cluster, nil, ScrubLoop, Options{})
	k := workload.ObjectID(0)
	for p.IsStored(0, k) {
		k++
	}
	out := &ScrubCycle{Corrupt: []Finding{{Site: 0, Object: k, Reason: "stale"}}}
	r.mu.Lock()
	err = r.repairFindings(out)
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if out.Repaired || r.Stats().Generation != 0 {
		t.Fatalf("stale finding shipped a plan: repaired=%v generation=%d", out.Repaired, r.Stats().Generation)
	}
}

// TestProbeTreatsAdmissionShedAsAlive pins the probe's overload contract: a
// site shedding its /healthz with 429 is a live server policing its queue,
// so it stays Up instead of being killed and repaired around.
func TestProbeTreatsAdmissionShedAsAlive(t *testing.T) {
	penv, p := healEnv(t)
	cluster, err := webserve.StartCluster(penv.W, p)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer shed.Close()
	orig := cluster.SiteBases[1]
	cluster.SiteBases[1] = shed.URL
	defer func() { cluster.SiteBases[1] = orig }()

	reg := telemetry.NewRegistry()
	r := mustNew(t, penv, p, cluster, nil, HealLoop, Options{FailThreshold: 1, ProbeTimeout: 2 * time.Second, Metrics: reg})
	for i := 0; i < 3; i++ {
		r.tick()
	}
	for i, st := range r.States() {
		if st != Up {
			t.Fatalf("site %d is %v after shed probes, want up", i, st)
		}
	}
	if shed, fails := reg.Counter("controller.probes_shed").Value(), reg.Counter("controller.probe_failures").Value(); shed != 3 || fails != 0 {
		t.Fatalf("probes_shed=%d probe_failures=%d, want 3 and 0", shed, fails)
	}
}

// TestReconcilerSoakKillRestart runs every loop live against one cluster
// (meant for -race): traffic drifts, replicas rot, and a site is killed and
// restarted. While the site is down no page may route to it, and after the
// restart the cluster must serve the reconciler's base again.
func TestReconcilerSoakKillRestart(t *testing.T) {
	env, p, cluster, est := adaptEnv(t, 0.3, rotSurvivors(t))
	defer cluster.Close()
	journal := trace.NewJournal(1 << 14)
	all := HealLoop | AdaptLoop | ScrubLoop
	r := mustNew(t, env, p, cluster, est, all, Options{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		FailThreshold: 3,
		OKThreshold:   2,
		AdaptInterval: 15 * time.Millisecond,
		ScrubInterval: 25 * time.Millisecond,
		Workers:       1,
		Journal:       journal,
		Metrics:       telemetry.NewRegistry(),
	})
	r.Start(all)
	defer r.Stop()

	observeBaseline(env.W, est, 0)
	if err := cluster.KillSite(0); err != nil {
		t.Fatal(err)
	}
	if !r.WaitFor(func(st []SiteState) bool { return st[0] == Down }, 5*time.Second) {
		t.Fatalf("site 0 never declared down; states=%v", r.States())
	}
	for round := 0; round < 20; round++ {
		if round == 5 {
			observeFlashCrowd(env.W, est, 0)
		}
		for _, pid := range env.W.Sites[0].Pages {
			if to := cluster.Route(pid); to == 0 {
				t.Fatalf("round %d: page %d routed to the dead site", round, pid)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cluster.RestartSite(0); err != nil {
		t.Fatal(err)
	}
	if !r.WaitFor(func(st []SiteState) bool { return st[0] == Up }, 5*time.Second) {
		t.Fatalf("site 0 never recovered; states=%v", r.States())
	}
	r.Stop()
	checkInvariants(t, "after soak", r, cluster, journal)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Repairs == 0 || st.Recoveries == 0 || st.ScrubCycles == 0 || st.Checks == 0 {
		t.Fatalf("soak did not exercise every loop: %+v", st)
	}
}
