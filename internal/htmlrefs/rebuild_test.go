package htmlrefs

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/workload"
)

// planned plans w under half-storage budgets, so re-plans move decisions.
func planned(t *testing.T, w *workload.Workload, est *netsim.Estimates) (*model.Env, *model.Placement) {
	t.Helper()
	b := model.FullBudgets(w)
	for i := range b.Storage {
		b.Storage[i] /= 2
	}
	env, err := model.NewEnv(w, est, b)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return env, p
}

// TestRebuildMatchesFreshBuild steps every site's database through a
// drift re-plan, a repair re-home, the recovery and a content change, each
// adopted the way a live cluster does (Prepare, then Commit). After every step each entry must equal a fresh
// BuildRefDB of the same (workload, placement), and every page whose render
// inputs did not change must share its document with its previous entry.
func TestRebuildMatchesFreshBuild(t *testing.T) {
	const base = "http://repo.example:8080"
	w0 := workload.MustGenerate(workload.SmallConfig(), 55)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w0.NumSites(), rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	_, p0 := planned(t, w0, est)

	dbs := make([]*RefDB, w0.NumSites())
	for i := range dbs {
		if dbs[i], err = BuildRefDB(w0, workload.SiteID(i), p0, base); err != nil {
			t.Fatal(err)
		}
	}
	// docs remembers each page's document as last served, by page.
	docs := make(map[workload.PageID][]byte)
	for _, db := range dbs {
		for pid, e := range db.entries {
			docs[pid] = e.Doc
		}
	}

	// step adopts (w, p) everywhere and checks it; rerendered lists the
	// pages whose documents must be new.
	step := func(label string, w *workload.Workload, p *model.Placement, rerendered map[workload.PageID]bool) {
		t.Helper()
		for i, db := range dbs {
			g, err := db.Prepare(w, p, base)
			if err != nil {
				t.Fatalf("%s: site %d: %v", label, i, err)
			}
			db.Commit(g)
			fresh, err := BuildRefDB(w, workload.SiteID(i), p, base)
			if err != nil {
				t.Fatal(err)
			}
			if len(db.entries) != len(fresh.entries) {
				t.Fatalf("%s: site %d holds %d pages, fresh build %d", label, i, len(db.entries), len(fresh.entries))
			}
			for pid, f := range fresh.entries {
				e := db.entries[pid]
				if e == nil {
					t.Fatalf("%s: site %d lost page %d", label, i, pid)
				}
				if !bytes.Equal(e.Doc, f.Doc) || !reflect.DeepEqual(e.Refs, f.Refs) ||
					!reflect.DeepEqual(e.Local, f.Local) || !reflect.DeepEqual(e.Weight, f.Weight) ||
					e.optMedian != f.optMedian {
					t.Fatalf("%s: site %d page %d differs from a fresh build", label, i, pid)
				}
				shared := &e.Doc[0] == &docs[pid][0]
				if shared == rerendered[pid] {
					t.Fatalf("%s: page %d document shared=%v, want %v", label, pid, shared, !rerendered[pid])
				}
				docs[pid] = e.Doc
			}
		}
	}

	// 1. Drift: frequencies move, content does not — nothing re-renders.
	w1, err := workload.Drift(w0, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	env1, p1 := planned(t, w1, est)
	if diff, err := model.Diff(p0, p1); err != nil || !diff.Changed() {
		t.Fatalf("drift re-plan left the placement unchanged (%v)", err)
	}
	step("drift", w1, p1, nil)

	// 2. Repair of site 0: its pages re-render at their new hosts.
	rp, err := repair.Compute(env1, p1, []workload.SiteID{0}, repair.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	moved := make(map[workload.PageID]bool)
	home := make(map[workload.PageID][]byte)
	for _, pid := range w1.Sites[0].Pages {
		moved[pid] = true
		home[pid] = docs[pid]
	}
	step("repair", rp.Env.W, rp.Placement, moved)

	// 3. Recovery: the pages get back the documents site 0 retired.
	for pid, doc := range home {
		docs[pid] = doc
	}
	step("recovery", w1, p1, nil)

	// 4. Content change: the first page with two compulsory objects swaps
	// them, and the last page grows.
	w4 := *w1
	w4.Pages = append([]workload.Page(nil), w1.Pages...)
	swap := 0
	for len(w4.Pages[swap].Compulsory) < 2 {
		swap++
	}
	pg := &w4.Pages[swap]
	pg.Compulsory = append([]workload.ObjectID(nil), pg.Compulsory...)
	pg.Compulsory[0], pg.Compulsory[1] = pg.Compulsory[1], pg.Compulsory[0]
	last := len(w4.Pages) - 1
	w4.Pages[last].HTMLSize += 1000
	step("content", &w4, p1, map[workload.PageID]bool{workload.PageID(swap): true, workload.PageID(last): true})
}
