package webserve

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// applyEnv is a three-site planned deployment plus the repair of site 0:
// every site-0 page re-homes onto a survivor, and the survivors' replica
// sets change with it.
func applyEnv(t testing.TB) (*model.Env, *model.Placement, *repair.Plan) {
	t.Helper()
	cfg := workload.SmallConfig()
	cfg.Sites = 3
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 4, 6
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 90, 30, 45
	cfg.MOClasses = []workload.SizeClass{
		{Frac: 0.5, Lo: 2 * units.KB, Hi: 8 * units.KB},
		{Frac: 0.5, Lo: 8 * units.KB, Hi: 32 * units.KB},
	}
	w := workload.MustGenerate(cfg, 66)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(66))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := corePlan(env)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := repair.Compute(env, p, []workload.SiteID{0}, repair.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return env, p, rp
}

// TestApplyPlanMakeBeforeBreak fetches pages in a loop across a repair
// ApplyPlan and its recovery, five times over. Every site stays up, so any
// 404 or repository fallback is the plan switch's own doing: a page that
// left its old host before the routes moved, or a replica dropped under a
// document that still points at it. Between two applies every fetcher
// finishes a whole fetch, so no single fetch straddles both.
func TestApplyPlanMakeBeforeBreak(t *testing.T) {
	env, p, rp := applyEnv(t)
	cluster, err := StartClusterOptions(env.W, p, ClusterOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Fetcher 0 cycles the pages that move; fetcher 1 cycles every page.
	lists := [][]workload.PageID{env.W.Sites[0].Pages, nil}
	for j := range env.W.Pages {
		lists[1] = append(lists[1], workload.PageID(j))
	}
	var (
		stop      atomic.Bool
		done      [2]atomic.Int64
		fallbacks atomic.Int64
		wg        sync.WaitGroup
		errMu     sync.Mutex
		errs      []error
	)
	for g := range lists {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := cluster.Client(quickOpts())
			for n := 0; !stop.Load(); n++ {
				pid := lists[g][n%len(lists[g])]
				res, err := client.FetchPage(cluster.PageURL(pid), pid)
				if err == nil && res.Degraded() {
					fallbacks.Add(int64(res.Fallbacks))
					if res.DegradedHTML {
						fallbacks.Add(1)
					}
				}
				if err != nil {
					errMu.Lock()
					errs = append(errs, err)
					errMu.Unlock()
				}
				done[g].Add(1)
			}
		}(g)
	}
	// settle waits until every fetcher has completed a fetch that started
	// after the call.
	settle := func(label string) {
		t.Helper()
		var from [2]int64
		for g := range done {
			from[g] = done[g].Load()
		}
		deadline := time.Now().Add(30 * time.Second)
		for g := range done {
			for done[g].Load() < from[g]+2 {
				if time.Now().After(deadline) {
					t.Fatalf("%s: fetcher %d made no progress", label, g)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	settle("healthy")
	for cycle := 0; cycle < 5; cycle++ {
		if err := cluster.ApplyPlan(rp.Env.W, rp.Placement); err != nil {
			t.Fatal(err)
		}
		for _, pid := range env.W.Sites[0].Pages {
			if cluster.Route(pid) == 0 {
				t.Fatalf("repair left page %d routed to site 0", pid)
			}
		}
		settle("repaired")
		if err := cluster.ApplyPlan(env.W, p); err != nil {
			t.Fatal(err)
		}
		settle("recovered")
	}
	stop.Store(true)
	wg.Wait()

	for _, err := range errs {
		t.Error(err)
	}
	if n := fallbacks.Load(); n != 0 {
		t.Errorf("%d repository fallbacks across the plan switches", n)
	}
	for i := 0; i < env.W.NumSites(); i++ {
		if n := cluster.Metrics.Counter(siteCounterPrefix(i) + "misses").Value(); n != 0 {
			t.Errorf("site %d answered %d requests with 404", i, n)
		}
	}
}

// TestApplyPlanAllOrNothing feeds ApplyPlan a plan whose last site cannot
// be prepared: no site may have moved to it, and the routes stay put.
func TestApplyPlanAllOrNothing(t *testing.T) {
	env, p, rp := applyEnv(t)
	cluster, err := StartCluster(env.W, p)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	before := make(map[workload.PageID][]byte)
	for j := range env.W.Pages {
		pid := workload.PageID(j)
		doc, err := cluster.Client(quickOpts()).GetDoc(cluster.PageURL(pid))
		if err != nil {
			t.Fatal(err)
		}
		before[pid] = doc
	}

	// The repaired workload with one page of the last site listing an
	// object twice, which its rendered document cannot validate against.
	bad := *rp.Env.W
	bad.Pages = append([]workload.Page(nil), bad.Pages...)
	last := workload.SiteID(bad.NumSites() - 1)
	pid := bad.Sites[last].Pages[0]
	pg := &bad.Pages[pid]
	pg.Compulsory = append(append([]workload.ObjectID(nil), pg.Compulsory...), pg.Compulsory[0])
	if err := cluster.ApplyPlan(&bad, rp.Placement); err == nil {
		t.Fatal("ApplyPlan accepted a page that cannot be validated")
	}

	for j := range env.W.Pages {
		pid := workload.PageID(j)
		if got := cluster.Route(pid); got != env.W.Pages[j].Site {
			t.Fatalf("page %d routed to site %d after a failed apply", pid, got)
		}
		doc, err := cluster.Client(quickOpts()).GetDoc(cluster.PageURL(pid))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, before[pid]) {
			t.Fatalf("page %d changed after a failed apply", pid)
		}
	}
	if w, cur := cluster.CurrentPlan(); w != env.W || cur != p {
		t.Fatal("a failed apply replaced the current plan")
	}
}

// BenchmarkClusterApplyPlan measures a live plan switch on the loopback
// cluster. drift alternates the plan with a re-plan for drifted traffic
// (same pages, new decisions: every document is reused); repair alternates
// the repair of site 0 with its recovery (site 0's pages move each time).
func BenchmarkClusterApplyPlan(b *testing.B) {
	env, p, rp := applyEnv(b)
	wd, err := workload.Drift(env.W, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	envd, err := model.NewEnv(wd, env.Est, env.Budgets)
	if err != nil {
		b.Fatal(err)
	}
	pd, _, err := corePlan(envd)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ws   [2]*workload.Workload
		ps   [2]*model.Placement
	}{
		{"drift", [2]*workload.Workload{env.W, wd}, [2]*model.Placement{p, pd}},
		{"repair", [2]*workload.Workload{env.W, rp.Env.W}, [2]*model.Placement{p, rp.Placement}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cluster, err := StartCluster(env.W, p)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cluster.ApplyPlan(c.ws[(i+1)%2], c.ps[(i+1)%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
