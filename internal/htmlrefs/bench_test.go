package htmlrefs

import (
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func benchWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	return workload.MustGenerate(workload.SmallConfig(), 55)
}

// BenchmarkParseRefs measures the HTML reference scanner on a realistic
// page (the parse happens once per page creation/update in the paper's
// system).
func BenchmarkParseRefs(b *testing.B) {
	w := benchWorkload(b)
	doc := RenderPage(w, 0, "http://repo.example")
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if refs := ParseRefs(doc); len(refs) == 0 {
			b.Fatal("no refs")
		}
	}
}

// BenchmarkServeRewrite measures the on-the-fly URL rewrite — the per-page
// serving cost the paper argues is "minimal compared to the network
// latency".
func BenchmarkServeRewrite(b *testing.B) {
	w := benchWorkload(b)
	db, err := BuildRefDB(w, 0, model.AllLocal(w), "http://repo.example")
	if err != nil {
		b.Fatal(err)
	}
	pid := w.Sites[0].Pages[0]
	doc, _ := db.Serve(pid, "http://s0.example")
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Serve(pid, "http://s0.example"); !ok {
			b.Fatal("page lost")
		}
	}
}

// BenchmarkBuildRefDB measures one site's database construction (page
// creation time, not serving time).
func BenchmarkBuildRefDB(b *testing.B) {
	w := benchWorkload(b)
	p := model.AllLocal(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRefDB(w, 0, p, "http://repo.example"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefDBRebuild measures one site's plan refresh. reuse alternates
// two placements over the same pages, so every parsed document is kept and
// only the decisions are rewritten; new alternates the repository base, so
// every page is rendered, parsed and validated again.
func BenchmarkRefDBRebuild(b *testing.B) {
	w := benchWorkload(b)
	plans := []*model.Placement{model.AllLocal(w), model.AllRemote(w)}
	for _, c := range []struct {
		name  string
		bases []string
	}{
		{"reuse", []string{"http://repo.example", "http://repo.example"}},
		{"new", []string{"http://repo.example", "http://repo2.example"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			db, err := BuildRefDB(w, 0, plans[0], c.bases[0])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Rebuild(w, plans[(i+1)%2], c.bases[(i+1)%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
