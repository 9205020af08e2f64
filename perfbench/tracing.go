package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tracer records one span per benchmark-side call into a layer, in memory,
// plus the allocation count of each planner phase. A nil *tracer is the
// untraced run: every method is then a no-op or the plain call, so the
// untraced path reads no clocks and takes no allocation counts.
type tracer struct {
	t   *trace.Tracer
	buf *trace.Buffer

	allocs map[string][]float64 // planner phase span name -> allocations per call

	// Counts from the set-up plan, a pure function of the seed.
	deallocs, procFlips, offloadMessages int

	mismatches int // phase-by-phase placements that differ from core.Plan's
}

func newTracer(seed uint64) *tracer {
	buf := trace.NewBuffer(0)
	return &tracer{t: trace.NewTracer(buf, seed, "bench"), buf: buf, allocs: map[string][]float64{}}
}

// root starts a new trace (one per page, replayed call or epoch).
func (tr *tracer) root(name string) *trace.Active {
	if tr == nil {
		return nil
	}
	return tr.t.StartTrace(name)
}

// mallocs reads the process-wide heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// phase runs fn as a child span of parent and records its allocations.
func (tr *tracer) phase(parent *trace.Active, name string, fn func()) {
	sp := parent.StartChild(name)
	before := mallocs()
	fn()
	tr.allocs[name] = append(tr.allocs[name], float64(mallocs()-before))
	sp.End()
}

// setupPlan builds the set-up placement for env. Untraced it is
// core.Plan. Traced it drives the planner's public phases one by one —
// NewPlanner, PARTITION, storage restoration and processing restoration
// over every site, then off-loading — with a span and an allocation count
// per phase, and keeps the phase counts. Restoring storage at every site
// before restoring processing at any is the same placement core.Plan
// computes, because distinct sites touch disjoint planner state;
// checkEqual verifies it here and on every traced re-plan.
func (tr *tracer) setupPlan(env *model.Env) (*model.Placement, error) {
	if tr == nil {
		p, _, err := core.Plan(env, core.Options{})
		return p, err
	}
	root := tr.root("plan.setup")
	p, st := tr.planPhased(env, root)
	root.End()
	tr.deallocs, tr.procFlips, tr.offloadMessages = st.deallocs, st.procFlips, st.messages
	_, err := tr.checkEqual(env, p)
	return p, err
}

type phaseStats struct{ deallocs, procFlips, messages int }

func (tr *tracer) planPhased(env *model.Env, parent *trace.Active) (*model.Placement, phaseStats) {
	workers := runtime.GOMAXPROCS(0)
	var pl *core.Planner
	var st phaseStats
	tr.phase(parent, "core.NewPlanner", func() { pl = core.NewPlanner(env) })
	tr.phase(parent, "core.Planner.PartitionParallel", func() { pl.PartitionParallel(workers, nil) })
	tr.phase(parent, "core.Planner.RestoreStorageSite", func() {
		st.deallocs = perSite(env.W.NumSites(), workers, pl.RestoreStorageSite)
	})
	tr.phase(parent, "core.Planner.RestoreProcessingSite", func() {
		st.procFlips = perSite(env.W.NumSites(), workers, pl.RestoreProcessingSite)
	})
	tr.phase(parent, "core.Planner.OffloadParallel", func() {
		st.messages = pl.OffloadParallel(nil, workers, nil).Messages
	})
	return pl.Placement(), st
}

// perSite runs fn on every site over a pool of workers, as core.Plan's
// restoration pool does, and sums its results.
func perSite(sites, workers int, fn func(workload.SiteID) int) int {
	out := make([]int, sites)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(workload.SiteID(i))
			}
		}()
	}
	for i := 0; i < sites; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	total := 0
	for _, v := range out {
		total += v
	}
	return total
}

// checkEqual compares a phase-by-phase placement against core.Plan's on
// the same environment, and returns how long the untraced core.Plan took.
func (tr *tracer) checkEqual(env *model.Env, p *model.Placement) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	ref, _, err := core.Plan(env, core.Options{})
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	if !p.Equal(ref) {
		tr.mismatches++
	}
	return took, nil
}

// spanTimes groups the recorded spans by name: wall durations and self
// times (duration minus the part of it that child spans cover), in seconds.
type spanTimes struct {
	dur, self map[string][]float64
}

func (tr *tracer) times() spanTimes {
	spans := tr.buf.Spans()
	children := map[trace.SpanID][]*trace.Span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	st := spanTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	for i := range spans {
		s := &spans[i]
		st.dur[s.Name] = append(st.dur[s.Name], s.Dur)
		st.self[s.Name] = append(st.self[s.Name], s.Dur-covered(s, children[s.ID]))
	}
	return st
}

// covered returns how much of parent's interval its children cover,
// counting overlapping children once.
func covered(parent *trace.Span, kids []*trace.Span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	lo, hi := parent.Start, parent.Start+parent.Dur
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name        string
	calls       int
	total, self float64 // seconds
}

func (st spanTimes) rows() []layerRow {
	rows := make([]layerRow, 0, len(st.dur))
	for name, ds := range st.dur {
		r := layerRow{name: name, calls: len(ds)}
		for i, d := range ds {
			r.total += d
			r.self += st.self[name][i]
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

// save writes the span forest as JSONL and as Chrome trace-event JSON.
func (tr *tracer) save(dir, stem string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spans := tr.buf.Spans()
	jsonl := filepath.Join(dir, stem+".jsonl")
	chrome := filepath.Join(dir, stem+".chrome.json")
	if err := trace.SaveJSONL(jsonl, spans); err != nil {
		return nil, fmt.Errorf("save spans: %w", err)
	}
	if err := trace.SaveChrome(chrome, spans); err != nil {
		return nil, fmt.Errorf("save chrome trace: %w", err)
	}
	return []string{jsonl, chrome}, nil
}
