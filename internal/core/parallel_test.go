package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// samePlacement fails the test unless a and b agree on every X/X' mark and
// every site's replica set.
func samePlacement(t *testing.T, a, b *model.Placement, label string) {
	t.Helper()
	w := a.Workload()
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx := range w.Pages[j].Compulsory {
			if a.CompLocal(pid, idx) != b.CompLocal(pid, idx) {
				t.Fatalf("%s: page %d comp %d differs", label, j, idx)
			}
		}
		for idx := range w.Pages[j].Optional {
			if a.OptLocal(pid, idx) != b.OptLocal(pid, idx) {
				t.Fatalf("%s: page %d opt %d differs", label, j, idx)
			}
		}
	}
	for i := range w.Sites {
		id := workload.SiteID(i)
		if !a.StoredSet(id).Equal(b.StoredSet(id)) {
			t.Fatalf("%s: site %d stores differ", label, i)
		}
		if a.StoredMOBytes(id) != b.StoredMOBytes(id) {
			t.Fatalf("%s: site %d stored bytes differ", label, i)
		}
	}
}

// TestPartitionParallelMatchesSequential pins the page-pool PARTITION
// against the sequential reference: identical placement bits and store
// sets for any worker count, and site accumulators that agree with the
// model recomputation.
func TestPartitionParallelMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		env := genEnv(t, 71)
		seq := NewPlanner(env)
		seq.PartitionAll()

		par := NewPlanner(env)
		par.PartitionParallel(workers, nil)

		samePlacement(t, seq.Placement(), par.Placement(), "partition")
		if err := par.VerifyConsistency(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d1, d2 := seq.D1(), par.D1(); !approxEqual(d1, d2, 1e-9) {
			t.Errorf("workers=%d: D1 %v vs sequential %v", workers, d2, d1)
		}
		for i := range env.W.Sites {
			id := workload.SiteID(i)
			if !approxEqual(float64(seq.SiteLoad(id)), float64(par.SiteLoad(id)), 1e-9) {
				t.Errorf("workers=%d: site %d load differs", workers, i)
			}
		}
	}
}

// TestPartitionParallelUnsorted checks the ablation switch threads through
// the page pool: the unsorted variant must match the sequential unsorted
// reference, not the sorted one.
func TestPartitionParallelUnsorted(t *testing.T) {
	env := genEnv(t, 72)
	seq := NewPlanner(env)
	seq.UnsortedPartition = true
	for j := range env.W.Pages {
		seq.PartitionPageUnsorted(workload.PageID(j))
	}

	par := NewPlanner(env)
	par.UnsortedPartition = true
	par.PartitionParallel(4, nil)
	w := env.W
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx := range w.Pages[j].Compulsory {
			if seq.Placement().CompLocal(pid, idx) != par.Placement().CompLocal(pid, idx) {
				t.Fatalf("unsorted partition: page %d comp %d differs", j, idx)
			}
		}
	}
}

// TestOffloadParallelMatchesSequential runs the same constrained
// negotiation through the sequential coordinator and through the pooled
// in-place acceptance path, and requires bit-identical stats,
// placements, message logs and caches.
func TestOffloadParallelMatchesSequential(t *testing.T) {
	build := func() *Planner {
		env := genEnv(t, 73)
		env.Budgets = env.Budgets.Scale(env.W, 0.6, 0.7)
		pl := NewPlanner(env)
		pl.PartitionParallel(1, nil)
		for i := range env.W.Sites {
			pl.RestoreStorageSite(workload.SiteID(i))
			pl.RestoreProcessingSite(workload.SiteID(i))
		}
		// Cap the repository at 60 % of its current load so the
		// negotiation has real work, including swaps on tight stores.
		env.Budgets.RepoCapacity = units.ReqPerSec(float64(pl.RepoLoad()) * 0.6)
		return pl
	}

	seq := build()
	var seqLog strings.Builder
	seqStats := seq.Offload(&seqLog)

	par := build()
	var parLog strings.Builder
	parStats := par.OffloadParallel(&parLog, 4, nil)

	if seqStats != parStats {
		t.Errorf("offload stats differ:\nsequential %+v\nparallel   %+v", seqStats, parStats)
	}
	if seqLog.String() != parLog.String() {
		t.Errorf("offload message logs differ:\n--- sequential\n%s--- parallel\n%s", seqLog.String(), parLog.String())
	}
	samePlacement(t, seq.Placement(), par.Placement(), "offload")
	if seq.D() != par.D() {
		t.Errorf("offload D differs: %v vs %v", seq.D(), par.D())
	}
	if err := par.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanWorkersDeterminismProperty is the race-detector determinism
// property (run via `go test -race ./internal/core/`): on seeded random
// workloads with random budget scales — including a constrained repository
// so the pooled off-loading path runs — Plan with Workers: 1 and with
// Workers: runtime.NumCPU() (and an oversubscribed pool) must produce
// identical placements and an identical D, bit for bit.
func TestPlanWorkersDeterminismProperty(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU(), 3 * runtime.NumCPU()}
	for seed := uint64(0); seed < 6; seed++ {
		s := rng.New(900 + seed)
		storage := 0.3 + 0.7*s.Float64()
		capacity := 0.4 + 0.6*s.Float64()
		repo := 0.5 + 0.5*s.Float64()

		build := func() *model.Env {
			w := workload.MustGenerate(workload.SmallConfig(), 900+seed)
			est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(900+seed))
			if err != nil {
				t.Fatal(err)
			}
			env, err := model.NewEnv(w, est, model.FullBudgets(w).Scale(w, storage, capacity))
			if err != nil {
				t.Fatal(err)
			}
			return env
		}

		// Size the repository cap from a probe so the negotiation runs.
		probeEnv := build()
		probe, _, err := Plan(probeEnv, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pre := model.RepoLoad(probeEnv, probe)

		var refP *model.Placement
		var refD float64
		for wi, workers := range workerCounts {
			env := build()
			env.Budgets.RepoCapacity = units.ReqPerSec(float64(pre) * repo)
			p, res, err := Plan(env, Options{Workers: workers, Refine: seed%2 == 0})
			if err != nil {
				t.Fatal(err)
			}
			if wi == 0 {
				refP, refD = p, res.D
				continue
			}
			if res.D != refD {
				t.Errorf("seed %d: D with workers=%d is %v, workers=1 gave %v", seed, workers, res.D, refD)
			}
			samePlacement(t, refP, p, "plan determinism")
		}
	}
}
