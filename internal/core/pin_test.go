package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// pinnedEnv builds a seeded constrained environment whose repository is
// capped at 60 % of the load an unconstrained-repository plan leaves on it,
// so the off-loading negotiation runs several rounds.
func pinnedEnv(t testing.TB, cfg workload.Config, seed uint64, storage, capacity float64) *model.Env {
	t.Helper()
	w := workload.MustGenerate(cfg, seed)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w).Scale(w, storage, capacity))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	env.Budgets.RepoCapacity = units.ReqPerSec(0.6 * float64(model.RepoLoad(env, p)))
	return env
}

// planDigest is SHA-256 over a canonical encoding of a plan: every page's
// X and X' bits, every site's replica set, the off-loading statistics
// (floats by their bits), the composite objective and the message log.
func planDigest(p *model.Placement, res *Result, log string) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	w := p.Workload()
	for j := range w.Pages {
		pid := workload.PageID(j)
		put(uint64(len(w.Pages[j].Compulsory)))
		for idx := range w.Pages[j].Compulsory {
			put(bit(p.CompLocal(pid, idx)))
		}
		put(uint64(len(w.Pages[j].Optional)))
		for idx := range w.Pages[j].Optional {
			put(bit(p.OptLocal(pid, idx)))
		}
	}
	for i := range w.Sites {
		id := workload.SiteID(i)
		put(uint64(p.StoredSet(id).Count()))
		p.StoredSet(id).ForEach(func(k int) bool {
			put(uint64(k))
			return true
		})
		put(uint64(p.StoredMOBytes(id)))
	}
	o := res.Offload
	put(bit(o.Ran))
	put(uint64(o.Rounds))
	put(uint64(o.Messages))
	put(bit(o.Restored))
	put(math.Float64bits(float64(o.RepoLoadBefore)))
	put(math.Float64bits(float64(o.RepoLoadAfter)))
	put(math.Float64bits(float64(o.MovedLocal)))
	put(uint64(o.NewReplicas))
	put(uint64(o.Swaps))
	put(math.Float64bits(res.D))
	h.Write([]byte(log))
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlanBytesPinned pins complete constrained plans — placement, replica
// sets, off-loading statistics and the protocol message log — to SHA-256
// digests taken before the planner's data structures were reworked, for
// the sequential and a pooled worker count. Any change to a greedy
// decision, a tie order or a float accumulation order changes a digest.
func TestPlanBytesPinned(t *testing.T) {
	cases := []struct {
		cfg               workload.Config
		seed              uint64
		storage, capacity float64
		refine            bool
		want              string
	}{
		{workload.SmallConfig(), 1101, 0.3, 0.7, false,
			"53751dc8c24abc2dd7c3bada773c288aa84ec6dcfd353d7e29df7b6ebb0a9d78"},
		{workload.SmallConfig(), 1102, 0.5, 0.6, true,
			"5227b53695cb6d351e26e33dd0f12f144ff0d5a4e2e483d1a5e3acb79e5ba7bb"},
		{workload.SmallConfig(), 1103, 0.6, 0.8, false,
			"997bd880c0a0b8b53198c4503fe30a51f858b85534f52fdecc934676d402ac41"},
		{workload.SmallConfig(), 1104, 0.4, 1.0, false,
			"4cc5045f4a397fd77fc7ebfe137d7109584e7ee49a54de4c56c2e8833432d8a4"},
		{workload.SmallConfig(), 1105, 0.8, 0.5, true,
			"3a906cf725d1b76a07b18678b241ff75ee67f53e9a1d24672aa63d7a43ae7c3f"},
		{workload.DefaultConfig(), 1106, 0.3, 0.7, false,
			"70142396cf64b5a7d42693766fd2b05a6c54cba98eb6b2b0e738b48f9f125b5f"},
	}
	swaps := 0
	for _, c := range cases {
		env := pinnedEnv(t, c.cfg, c.seed, c.storage, c.capacity)
		for _, workers := range []int{1, 4} {
			var log strings.Builder
			p, res, err := Plan(env, Options{Workers: workers, MessageLog: &log, Refine: c.refine})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Offload.Ran || res.Offload.Rounds < 2 {
				t.Errorf("seed %d: off-loading ran %v for %d rounds; want several", c.seed, res.Offload.Ran, res.Offload.Rounds)
			}
			swaps += res.Offload.Swaps
			if got := planDigest(p, res, log.String()); got != c.want {
				t.Errorf("seed %d workers=%d: plan digest %s, want %s", c.seed, workers, got, c.want)
			}
		}
	}
	if swaps == 0 {
		t.Error("no case exercised the off-loading swap phase")
	}
}
