package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/htmlrefs"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/trace"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// runOpts are one run's arguments.
type runOpts struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceDir string // where the traced run writes its span forest
}

// result is one run's outcome: every metric by name, the work attempted
// and failed, and the correctness checks that failed (none when correct).
type result struct {
	attempted, failed int
	checks            []string
	metrics           map[string]float64
	notes             map[string]string // context printed beside a metric
	layers            []layerRow        // traced run: self time per layer
	files             []string          // traced run: span files written
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// epochRec is one re-plan epoch.
type epochRec struct {
	op        time.Duration // the timed re-plan op
	steal     float64       // stolen share of the CPU time during the op
	cpu       time.Duration
	allocs    uint64
	planD     float64 // D of the applied plan under the true drifted workload
	copyBytes int64
	firstPage time.Duration // the first page fetched after the apply
	warm      bool          // a heap warm-up epoch, left out of the timings
	traced    bool
	// Traced epochs: the phase-by-phase planning inside the op, and
	// core.Plan on the same environment outside it.
	phasedPlan, plainPlan time.Duration
	ok                    bool
}

// run executes one workload for o.seconds of measurement after set-up.
func run(sp spec, o runOpts) (*result, error) {
	res := &result{metrics: map[string]float64{}, notes: map[string]string{}}
	var tr *tracer
	if o.traced {
		tr = newTracer(o.seed)
	}

	// Set-up, several times when untraced: setup_s is their median, each
	// net of steal. Each set-up starts from a collected heap, as a fresh
	// process would.
	reps := 3
	if o.traced {
		reps = 1
	}
	var d *deployment
	var setups, rawSetups []float64
	for i := 0; i < reps; i++ {
		d.close()
		d = nil
		runtime.GC()
		debug.FreeOSMemory()
		c0, start := readCPUTimes(), time.Now()
		var err error
		if d, err = setup(sp, o.seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t := time.Since(start).Seconds()
		rawSetups = append(rawSetups, t)
		setups = append(setups, t*(1-stolen(c0, readCPUTimes())))
		res.attempted += sp.warmPages
	}
	defer d.close()
	res.metrics["setup_s"] = median(setups)
	res.notes["setup_s"] = fmt.Sprintf("median of %d set-ups net of steal; raw %s s", reps, seconds(rawSetups))

	// The untraced run measures the workload's unit of work for the whole
	// run; the traced run splits it between the serving window and re-plan
	// epochs, so every layer is exercised on every workload.
	total := time.Duration(o.seconds * float64(time.Second))
	serve, replan := !sp.replan, sp.replan
	windowDur := total
	if o.traced {
		serve, replan = true, true
		windowDur = total / 2
	}
	runtime.GC()
	gc0 := gcCPU()
	cpu0 := readCPUTimes()
	runStart := time.Now()

	// The steady serving window: one closed-loop client — the paper's
	// browser — fetching frequency-weighted pages back to back.
	var win *window
	if serve {
		win = serveWindow(d, sp, windowDur, tr, res)
	}
	if tr != nil {
		replayLayers(d, win.pages, tr, res)
	}

	// Re-plan epochs. The first warmEpochs grow the heap to its steady
	// size (the first re-plans of a fresh cluster page-fault in hundreds of
	// megabytes) and are not timed. Measured epochs then run until the
	// measured seconds left are used up, and never fewer than fixedEpochs.
	var epochs []epochRec
	var cold []pageRec
	if replan {
		budget := total - time.Since(runStart)
		var measured time.Time
		for e := 0; e < warmEpochs+fixedEpochs || time.Since(measured) < budget; e++ {
			if e == warmEpochs {
				measured = time.Now()
			}
			// Traced runs trace every other measured epoch.
			rec, pages, err := replanEpoch(d, e, tr, e >= warmEpochs && e%2 == 0, res)
			if err != nil {
				return nil, fmt.Errorf("epoch %d: %w", e, err)
			}
			rec.warm = e < warmEpochs
			epochs = append(epochs, rec)
			if !rec.warm {
				cold = append(cold, pages...)
			}
		}
	}
	gc1 := gcCPU()
	m := res.metrics
	m["host.steal_share"] = stolen(cpu0, readCPUTimes())

	var pageNet float64
	if win != nil {
		pageNet = summarizeWindow(sp, win, res)
	}
	var replanNet, replanCPU float64
	if replan {
		replanNet, replanCPU = summarizeEpochs(epochs, cold, res)
	}
	if sp.replan {
		m["op_p50_ms"] = replanNet * 1e3
		m["cpu_ms_per_op"] = replanCPU * 1e3
		res.notes["op_p50_ms"] = "median re-plan net of steal; raw: replan_p50_s"
		res.notes["cpu_ms_per_op"] = "median CPU of a re-plan"
	} else {
		m["op_p50_ms"] = pageNet
		m["cpu_ms_per_op"] = m["cpu_ms_per_page"]
		res.notes["op_p50_ms"] = "median page net of steal; raw: page_p50_ms"
		res.notes["cpu_ms_per_op"] = "= cpu_ms_per_page"
	}
	m["go.gc_cpu_fraction"] = (gc1.gc - gc0.gc) / (gc1.total - gc0.total)
	m["max_rss_mb"] = float64(readRusage().maxRSS) / 1e6
	m["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	m["admission.sheds"] = float64(sheds(d))
	res.check(sheds(d) == 0, "healthy cluster shed %d requests", sheds(d))
	res.check(res.failed == 0, "%d of %d operations failed", res.failed, res.attempted)

	if tr != nil {
		tracedMetrics(tr, sp, win, epochs, res)
		files, err := tr.save(o.traceDir, fmt.Sprintf("%s-seed%d", sp.name, o.seed))
		if err != nil {
			return nil, err
		}
		res.files = files
	}
	return res, nil
}

// window is the steady serving window's record.
type window struct {
	recs             []pageRec
	pages            []workload.PageID // served sequence, for the traced replays
	wall, cpu        time.Duration
	allocs, allocB   uint64
	repoReq, siteReq int64 // server MO requests over the first exactPages pages
}

func serveWindow(d *deployment, sp spec, dur time.Duration, tr *tracer, res *result) *window {
	win := &window{}
	sampler := newPageSampler(d.truth, derive(d.seed, streamServe))
	runtime.GC()
	repo0, sites0 := d.serverCounts()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ru0 := readRusage()
	start := time.Now()
	// Steal is sampled once a second (the kernel counts it in clock
	// ticks); each page takes the stolen share of its second.
	block, blockFirst, c0 := start, 0, readCPUTimes()
	endBlock := func(end int) {
		c1 := readCPUTimes()
		f := stolen(c0, c1)
		for k := blockFirst; k < end; k++ {
			win.recs[k].steal = f
		}
		block, blockFirst, c0 = time.Now(), end, c1
	}
	for i := 0; time.Since(start) < dur || i < sp.exactPages; i++ {
		if time.Since(block) >= time.Second {
			endBlock(i)
		}
		j := sampler.next()
		var root *trace.Active
		if i%2 == 0 {
			root = tr.root("page")
		}
		call := root.StartChild("webserve.Client.FetchPage")
		rec, _ := d.fetch(j)
		call.End()
		root.End()
		rec.traced = root != nil
		win.recs = append(win.recs, rec)
		win.pages = append(win.pages, j)
		if i+1 == sp.exactPages {
			repo1, sites1 := d.serverCounts()
			win.repoReq, win.siteReq = repo1-repo0, sites1-sites0
		}
	}
	win.wall = time.Since(start)
	win.cpu = cpuSince(ru0, readRusage())
	endBlock(len(win.recs))
	runtime.ReadMemStats(&ms1)
	win.allocs, win.allocB = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc

	var wantRepo, wantSites int64
	for _, r := range win.recs[:sp.exactPages] {
		wantRepo += int64(r.repoObjs)
		wantSites += int64(r.localObjs)
	}
	res.check(win.repoReq == wantRepo, "repository served %d MO requests over the first %d pages, client fetched %d", win.repoReq, sp.exactPages, wantRepo)
	res.check(win.siteReq == wantSites, "sites served %d MO requests over the first %d pages, client fetched %d", win.siteReq, sp.exactPages, wantSites)
	for _, r := range win.recs {
		res.attempted++
		if r.failed {
			res.failed++
		}
		res.check(r.fallbacks == 0, "page %d fell back to the repository %d times on a healthy cluster", r.page, r.fallbacks)
	}
	return win
}

// replanEpoch drifts the traffic, feeds a seeded sample of it to the
// estimator (off the clock), times one re-plan op, then fetches a seeded
// sample of pages from the new plan and checks them. The op is composed
// from the layers' entry points: snapshot → drift check → EstimateWorkload
// → plan → ChangeDelta → Diff → ApplyPlan returned.
func replanEpoch(d *deployment, e int, tr *tracer, traceThis bool, res *result) (epochRec, []pageRec, error) {
	rec := epochRec{traced: tr != nil && traceThis}
	truth, err := workload.Drift(d.truth, driftFrac, epochSeed(d.seed, streamDrift, e))
	if err != nil {
		return rec, nil, err
	}
	at := epochClock * float64(e+1)
	feed := newPageSampler(truth, epochSeed(d.seed, streamFeed, e))
	for i := 0; i < feedPerPage*truth.NumPages(); i++ {
		j := feed.next()
		d.freq.Observe(truth.Pages[j].Site, j, at)
	}
	runtime.GC()

	var root *trace.Active
	if rec.traced {
		root = tr.root("replan")
	}
	call := func(name string, fn func()) {
		sp := root.StartChild(name)
		fn()
		sp.End()
	}
	ms0 := mallocs()
	ru0 := readRusage()
	c0 := readCPUTimes()
	start := time.Now()

	var snap *estimate.Snapshot
	var dec estimate.Decision
	call("estimate.Estimator.Snapshot", func() { snap = d.freq.Snapshot(at) })
	call("estimate.Detector.Check", func() { dec, err = d.det.Check(snap.FreqVector(truth.NumPages())) })
	if err != nil {
		root.End()
		return rec, nil, err
	}
	d.truth = truth
	res.attempted++
	if !dec.Trigger {
		root.End()
		res.failed++
		res.check(false, "epoch %d: drift check did not trigger (L1 %.3f)", e, dec.L1)
		return rec, nil, nil
	}
	var w2 *workload.Workload
	call("estimate.Snapshot.EstimateWorkload", func() { w2, err = snap.EstimateWorkload(d.env.W) })
	if err != nil {
		root.End()
		return rec, nil, err
	}
	env2, err := model.NewEnv(w2, d.est, d.budgets)
	if err != nil {
		root.End()
		return rec, nil, err
	}
	env2.Alpha1, env2.Alpha2 = d.env.Alpha1, d.env.Alpha2
	var fresh *model.Placement
	if rec.traced {
		t := time.Now()
		fresh, _ = tr.planPhased(env2, root)
		rec.phasedPlan = time.Since(t)
	} else {
		call("core.Plan", func() { fresh, _, err = core.Plan(env2, core.Options{}) })
		if err != nil {
			root.End()
			return rec, nil, err
		}
	}
	var delta repair.Delta
	var diff *model.DiffReport
	call("repair.ChangeDelta", func() { delta = repair.ChangeDelta(d.env, env2, d.plan, fresh) })
	call("model.Diff", func() { diff, err = model.Diff(d.plan, fresh) })
	if err == nil {
		call("webserve.Cluster.ApplyPlan", func() { err = d.cluster.ApplyPlan(w2, fresh) })
	}
	rec.op = time.Since(start)
	rec.cpu = cpuSince(ru0, readRusage())
	rec.steal = stolen(c0, readCPUTimes())
	rec.allocs = mallocs() - ms0
	root.End()
	if err != nil {
		return rec, nil, err
	}
	d.det.Rebase(estimate.BaselineVector(w2))
	d.env, d.plan = env2, fresh
	rec.ok = true
	rec.copyBytes = int64(delta.CopyBytes)
	if rec.traced {
		if rec.plainPlan, err = tr.checkEqual(env2, fresh); err != nil {
			return rec, nil, err
		}
	}
	envTrue, err := model.NewEnv(truth, d.est, d.budgets)
	if err != nil {
		return rec, nil, err
	}
	rec.planD = model.D(envTrue, fresh)
	res.check(!d.sp.constrained || diff.Changed(), "epoch %d: re-plan left the placement unchanged", e)

	// The views users fetch right after the apply: the write-beside-read
	// cost of the plan swap.
	sampler := newPageSampler(truth, epochSeed(d.seed, streamSample, e))
	var root2 *trace.Active
	if rec.traced {
		root2 = tr.root("post-apply")
	}
	pages := make([]pageRec, 0, d.sp.samplePages)
	for i := 0; i < d.sp.samplePages; i++ {
		j := sampler.next()
		sp := root2.StartChild("webserve.Client.FetchPage")
		pr, _ := d.fetch(j)
		sp.End()
		pages = append(pages, pr)
		res.attempted++
		if pr.failed {
			res.failed++
		}
		local := fresh.LocalCompCount(j)
		res.check(d.cluster.Route(j) == w2.Pages[j].Site, "epoch %d: page %d routed to site %d, plan hosts it at %d", e, j, d.cluster.Route(j), w2.Pages[j].Site)
		res.check(pr.failed || pr.localObjs == local, "epoch %d: page %d fetched %d local objects, plan has %d", e, j, pr.localObjs, local)
		res.check(pr.failed || pr.repoObjs == len(w2.Pages[j].Compulsory)-local, "epoch %d: page %d fetched %d repository objects, plan has %d", e, j, pr.repoObjs, len(w2.Pages[j].Compulsory)-local)
	}
	root2.End()
	rec.firstPage = pages[0].elapsed
	return rec, pages, nil
}

// replayBudget bounds each timed replay of the serving path's layers.
const replayBudget = 1500 * time.Millisecond

// replayLayers times the serving path's layers one call at a time, on the
// page and (object, source) sequence the serving window produced: payload
// generation and verification, the page rewrite and reference parse, the
// admission gate and the estimator's tap. Allocation counts come from a
// separate span-free pass.
func replayLayers(d *deployment, pages []workload.PageID, tr *tracer, res *result) {
	replayPayloads(d, pages, tr, res)
	replayPages(d, pages, tr, res)
	replayAdmission(d, tr, res)
	replayObserve(d, pages, tr, res)
}

func replayPayloads(d *deployment, pages []workload.PageID, tr *tracer, res *result) {
	w, plan := d.truth, d.plan
	type served struct {
		k   workload.ObjectID
		src int
	}
	var objs []served
	for _, j := range pages {
		for idx, k := range w.Pages[j].Compulsory {
			src := webserve.RepoSource
			if plan.CompLocal(j, idx) {
				src = int(w.Pages[j].Site)
			}
			objs = append(objs, served{k, src})
		}
	}
	n := min(len(objs), 200)
	m0 := mallocs()
	for _, o := range objs[:n] {
		_, _ = io.Copy(io.Discard, webserve.ObjectReader(w, o.src, o.k)) // reads from memory; cannot fail
	}
	res.metrics["webserve.payload_allocs_per_object"] = float64(mallocs()-m0) / float64(n)

	var body bytes.Buffer
	start := time.Now()
	for i, o := range objs {
		if i > 0 && time.Since(start) > replayBudget {
			break
		}
		body.Reset()
		_, _ = body.ReadFrom(webserve.ObjectReader(w, o.src, o.k)) // reads from memory; cannot fail
		root := tr.root("replay.object")
		sp := root.StartChild("webserve.ObjectReader")
		r := webserve.ObjectReader(w, o.src, o.k)
		sp.End()
		sp = root.StartChild("io.Copy(io.Discard)")
		_, _ = io.Copy(io.Discard, r)
		sp.End()
		sp = root.StartChild("webserve.VerifyObject")
		err := webserve.VerifyObject(w, o.k, body.Bytes())
		sp.End()
		root.End()
		res.check(err == nil, "replayed object %d from source %d does not verify: %v", o.k, o.src, err)
	}
}

// replayPages runs ServeTier on a reference database of the live
// placement, then parses the document the client would receive.
func replayPages(d *deployment, pages []workload.PageID, tr *tracer, res *result) {
	w := d.truth
	dbs := make([]*htmlrefs.RefDB, w.NumSites())
	for i := range dbs {
		var err error
		if dbs[i], err = htmlrefs.BuildRefDB(w, workload.SiteID(i), d.plan, d.cluster.RepoBase); err != nil {
			res.check(false, "BuildRefDB site %d: %v", i, err)
			return
		}
	}
	serve := func(j workload.PageID) ([]byte, bool) {
		i := w.Pages[j].Site
		doc, _, ok := dbs[i].ServeTier(j, d.cluster.SiteBases[i], 0)
		return doc, ok
	}
	n := min(len(pages), 200)
	m0 := mallocs()
	for _, j := range pages[:n] {
		doc, _ := serve(j)
		htmlrefs.ParseRefs(doc)
	}
	res.metrics["htmlrefs.allocs_per_page"] = float64(mallocs()-m0) / float64(n)

	start := time.Now()
	for i, j := range pages {
		if i > 0 && time.Since(start) > replayBudget {
			break
		}
		root := tr.root("replay.page")
		sp := root.StartChild("htmlrefs.RefDB.ServeTier")
		doc, ok := serve(j)
		sp.End()
		sp = root.StartChild("htmlrefs.ParseRefs")
		refs := htmlrefs.ParseRefs(doc)
		sp.End()
		root.End()
		res.check(ok && len(refs) >= len(w.Pages[j].Compulsory), "replayed page %d: served %v with %d references", j, ok, len(refs))
	}
}

// replayAdmission times the uncontended admission gate at its production
// defaults.
func replayAdmission(d *deployment, tr *tracer, res *result) {
	const admits = 200000
	ep := admission.NewServer(admission.Config{Seed: d.seed}, nil, admission.Metrics{}).Endpoint("mo")
	ctx := context.Background()
	root := tr.root("replay.admission")
	sp := root.StartChild("admission.Endpoint.Admit")
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	rejected := 0
	for i := 0; i < admits; i++ {
		v, release := ep.Admit(ctx, clock, time.Time{})
		if v != admission.Admitted {
			rejected++
			continue
		}
		release()
	}
	res.metrics["admission.admit_ns"] = float64(time.Since(start).Nanoseconds()) / admits
	sp.End()
	root.End()
	res.check(rejected == 0, "uncontended admission rejected %d of %d requests", rejected, admits)
}

// replayObserve times the estimator's tap: one Observe per served view.
func replayObserve(d *deployment, pages []workload.PageID, tr *tracer, res *result) {
	const observes = 200000
	w := d.truth
	est, err := estimate.New(w, estimate.Config{})
	if err != nil {
		res.check(false, "estimator: %v", err)
		return
	}
	root := tr.root("replay.estimate")
	sp := root.StartChild("estimate.Estimator.Observe")
	start := time.Now()
	for i := 0; i < observes; i++ {
		j := pages[i%len(pages)]
		est.Observe(w.Pages[j].Site, j, float64(i)*1e-3)
	}
	res.metrics["estimate.observe_ns"] = float64(time.Since(start).Nanoseconds()) / observes
	sp.End()
	root.End()
}

// gcSample is the runtime's cumulative CPU accounting.
type gcSample struct{ gc, total float64 }

func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// sheds sums every admission shed counter in the cluster's registry.
func sheds(d *deployment) int64 {
	var n int64
	for _, c := range d.cluster.Metrics.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "admission.") && strings.Contains(c.Name, ".shed_by.") {
			n += c.Value
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartileNote describes a sample for a median's note.
func quartileNote(xs []float64, what string) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("median of %d %s, Q1 %.4g, Q3 %.4g", len(xs), what, q1, q3)
}

// seconds renders durations in seconds for a note.
func seconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, " ")
}

// summarizeWindow turns the serving window's pages into the page metrics
// and returns the median page time net of steal, in milliseconds.
func summarizeWindow(sp spec, win *window, res *result) float64 {
	m := res.metrics
	var ok []pageRec
	for _, r := range win.recs {
		if !r.failed {
			ok = append(ok, r)
		}
	}
	times := make([]float64, len(ok))
	net := make([]float64, len(ok))
	var local, remote []float64
	var critical, retries, fallbacks int
	for i, r := range ok {
		times[i] = ms(r.elapsed)
		net[i] = times[i] * (1 - r.steal)
		local = append(local, ms(r.local))
		remote = append(remote, ms(r.remote))
		if r.remote > r.local {
			critical++
		}
	}
	for _, r := range win.recs {
		retries += r.retries
		fallbacks += r.fallbacks
	}
	n := float64(len(win.recs))
	m["pages_per_s"] = float64(len(ok)) / win.wall.Seconds()
	m["page_p50_ms"] = median(times)
	res.notes["page_p50_ms"] = quartileNote(times, "pages")
	m["cpu_ms_per_page"] = ms(win.cpu) / n
	if t, okTail := tailPercentile(times, 0.99, 10); okTail {
		m["page_p99_ms"] = t.Value
		res.notes["page_p99_ms"] = fmt.Sprintf("p%.4g of %d pages", 100*t.Pct, t.N)
	}
	res.notes["pages_per_s"] = fmt.Sprintf("%d pages in %.1f s", len(ok), win.wall.Seconds())
	m["webserve.client.local_chain_ms"] = median(local)
	m["webserve.client.remote_chain_ms"] = median(remote)
	m["webserve.client.remote_critical_share"] = float64(critical) / float64(len(ok))
	m["webserve.client.retries_per_page"] = float64(retries) / n
	m["webserve.client.fallbacks_per_page"] = float64(fallbacks) / n
	m["webserve.repo_requests_per_page"] = float64(win.repoReq) / float64(sp.exactPages)
	m["webserve.site_mo_requests_per_page"] = float64(win.siteReq) / float64(sp.exactPages)
	m["go.allocs_per_page"] = float64(win.allocs) / n
	m["go.alloc_mb_per_page"] = float64(win.allocB) / 1e6 / n
	return median(net)
}

// summarizeEpochs turns the re-plan epochs into the re-plan metrics and
// returns the median re-plan seconds net of steal and the median CPU
// seconds of a re-plan — the gated CPU per op: a handful of re-plans, one
// of which may run a long off-loading negotiation, would swamp a mean.
func summarizeEpochs(epochs []epochRec, cold []pageRec, res *result) (net, cpuMedian float64) {
	m := res.metrics
	var ops, opNet, opCPU, planD, copyMB, firstPage []float64
	var cpu time.Duration
	var allocs uint64
	var warm []float64
	for i, e := range epochs {
		if i < fixedEpochs {
			planD = append(planD, e.planD)
			copyMB = append(copyMB, float64(e.copyBytes)/1e6)
		}
		switch {
		case !e.ok:
		case e.warm:
			warm = append(warm, e.op.Seconds())
		default:
			ops = append(ops, e.op.Seconds())
			opNet = append(opNet, e.op.Seconds()*(1-e.steal))
			opCPU = append(opCPU, e.cpu.Seconds())
			firstPage = append(firstPage, ms(e.firstPage))
			cpu += e.cpu
			allocs += e.allocs
		}
	}
	m["replan_p50_s"] = median(ops)
	m["cpu_s_per_replan"] = cpu.Seconds() / float64(len(ops))
	m["go.allocs_per_replan"] = float64(allocs) / float64(len(ops))
	m["plan_d"] = mean(planD)
	m["replan_copy_mb"] = mean(copyMB)
	res.notes["replan_p50_s"] = fmt.Sprintf("%s: %s; untimed heap warm-up: %s", quartileNote(ops, "re-plans"), seconds(ops), seconds(warm))
	res.notes["cpu_s_per_replan"] = "per op: " + seconds(opCPU)
	res.notes["plan_d"] = fmt.Sprintf("mean over the first %d epochs", len(planD))
	var coldT []float64
	for _, r := range cold {
		if !r.failed {
			coldT = append(coldT, ms(r.elapsed))
		}
	}
	m["cold_page_p50_ms"] = median(coldT)
	m["webserve.post_apply_page_ms"] = median(firstPage)
	res.notes["cold_page_p50_ms"] = fmt.Sprintf("median of %d post-apply pages", len(coldT))
	return median(opNet), median(opCPU)
}

// tracedMetrics derives the per-layer times from the span forest.
func tracedMetrics(tr *tracer, sp spec, win *window, epochs []epochRec, res *result) {
	m := res.metrics
	st := tr.times()
	us := func(name string) float64 { return mean(st.self[name]) * 1e6 }
	msMed := func(name string) float64 { return median(st.dur[name]) * 1e3 }
	m["webserve.object_open_us"] = us("webserve.ObjectReader")
	m["webserve.object_stream_us"] = us("io.Copy(io.Discard)")
	m["webserve.verify_us"] = us("webserve.VerifyObject")
	m["htmlrefs.serve_tier_us"] = us("htmlrefs.RefDB.ServeTier")
	m["htmlrefs.parse_refs_us"] = us("htmlrefs.ParseRefs")
	m["estimate.snapshot_ms"] = msMed("estimate.Estimator.Snapshot")
	m["estimate.detector_check_ms"] = msMed("estimate.Detector.Check")
	m["estimate.estimate_workload_ms"] = msMed("estimate.Snapshot.EstimateWorkload")
	for _, ph := range []struct{ metric, span string }{
		{"core.new_planner", "core.NewPlanner"},
		{"core.partition", "core.Planner.PartitionParallel"},
		{"core.restore_storage", "core.Planner.RestoreStorageSite"},
		{"core.restore_processing", "core.Planner.RestoreProcessingSite"},
		{"core.offload", "core.Planner.OffloadParallel"},
	} {
		m[ph.metric+"_ms"] = msMed(ph.span)
		m[ph.metric+".allocs"] = median(tr.allocs[ph.span])
	}
	m["core.deallocs"] = float64(tr.deallocs)
	m["core.proc_flips"] = float64(tr.procFlips)
	m["core.offload_messages"] = float64(tr.offloadMessages)
	m["repair.change_delta_ms"] = msMed("repair.ChangeDelta")
	m["model.diff_ms"] = msMed("model.Diff")
	m["webserve.apply_plan_ms"] = msMed("webserve.Cluster.ApplyPlan")
	res.check(tr.mismatches == 0, "%d phase-by-phase placements differ from core.Plan's", tr.mismatches)

	// Tracing overhead on the workload's op. Pages alternate between
	// traced and untraced. A traced re-plan is compared with the same op
	// had it used the untraced core.Plan, timed on the same environment.
	var pageOn, pageOff, opOn, opOff []float64
	for _, r := range win.recs {
		if r.failed {
			continue
		}
		if r.traced {
			pageOn = append(pageOn, ms(r.elapsed))
		} else {
			pageOff = append(pageOff, ms(r.elapsed))
		}
	}
	for _, e := range epochs {
		if e.ok && e.traced {
			opOn = append(opOn, e.op.Seconds())
			opOff = append(opOff, (e.op - e.phasedPlan + e.plainPlan).Seconds())
		}
	}
	if sp.replan {
		m["trace.overhead_pct"] = 100 * (median(opOn)/median(opOff) - 1)
	} else {
		m["trace.overhead_pct"] = 100 * (median(pageOn)/median(pageOff) - 1)
	}
	res.layers = st.rows()
}
