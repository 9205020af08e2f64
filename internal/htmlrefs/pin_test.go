package htmlrefs

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// TestRenderPageBytesPinned pins RenderPage byte for byte: a SHA-256 over
// every page of two fixed generated workloads. The sums were taken from the
// fmt-based renderer this one replaced; any change to a stored document
// breaks them.
func TestRenderPageBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  workload.Config
		seed uint64
		sum  string
	}{
		{"small/55", workload.SmallConfig(), 55, "64527147577d3e805c992e2a488adda604f5d3930d73416ce8103d74516793a7"},
		{"default/7", workload.DefaultConfig(), 7, "66570de3deb89cf90ad2e5e582dba037653165cd5a1a0376f6d39fcb89ce52df"},
	} {
		w := workload.MustGenerate(c.cfg, c.seed)
		h := sha256.New()
		for j := range w.Pages {
			h.Write(RenderPage(w, workload.PageID(j), "http://repo.example:8080"))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sum {
			t.Errorf("%s: rendered pages hash to %s, want %s", c.name, got, c.sum)
		}
	}
}

// TestServeTierBytesPinned pins the served form the same way: every page
// of every site at brownout tiers 0-2 under a mixed placement.
func TestServeTierBytesPinned(t *testing.T) {
	const want = "31be05986f20be18eec819995a63da24641b492365a7a4d4c23ebd8b64306a80"
	w := workload.MustGenerate(workload.SmallConfig(), 55)
	p := model.NewPlacement(w)
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx := range w.Pages[j].Compulsory {
			p.SetCompLocal(pid, idx, (j+idx)%2 == 0)
		}
		for idx := range w.Pages[j].Optional {
			p.SetOptLocal(pid, idx, (j+idx)%3 == 0)
		}
	}
	h := sha256.New()
	for i := 0; i < w.NumSites(); i++ {
		db, err := BuildRefDB(w, workload.SiteID(i), p, "http://repo.example:8080")
		if err != nil {
			t.Fatal(err)
		}
		for _, pid := range w.Sites[i].Pages {
			for tier := 0; tier < 3; tier++ {
				doc, _, _ := db.ServeTier(pid, "http://s.example:9", tier)
				h.Write(doc)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("served pages hash to %s, want %s", got, want)
	}
}
