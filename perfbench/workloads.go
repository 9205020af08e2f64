package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// spec is one named workload: the generated content, the budgets it is
// planned under, and its unit of work — a page view in the steady serving
// window, or a re-plan epoch.
type spec struct {
	name string
	why  string
	cfg  func() workload.Config
	// constrained plans under Scale(0.3, 0.7) budgets with the repository
	// capped at 60 % of the unconstrained plan's load, so storage
	// restoration deallocates and off-loading negotiates on every re-plan.
	// Tighter site capacities make processing restoration flip downloads
	// too, but then a third to a half of the re-plans run the off-loading
	// negotiation to its 64-round cap while the rest stop after two rounds,
	// and a run's median re-plan time takes one of two values depending on
	// the seed. The serving workloads use full budgets.
	constrained bool
	// replan makes the re-plan epoch the workload's unit of work; otherwise
	// it is a page view. The traced run measures both, for every layer.
	replan bool
	// warmPages are fetched during set-up, before any timing.
	warmPages int
	// samplePages are fetched right after each re-plan is applied.
	samplePages int
	// exactPages is the fixed page-count prefix of the serving window over
	// which the server request counters are read, so they repeat per seed;
	// the window runs at least this many pages.
	exactPages int
}

const (
	// driftFrac is the share of each site's hot set rotated per epoch.
	driftFrac = 0.3
	// fixedEpochs measured re-plan epochs always run, whatever the clock
	// says; the deterministic metrics (plan_d, replan_copy_mb) average the
	// first fixedEpochs epochs of all.
	fixedEpochs = 3
	// warmEpochs re-plan epochs run before the measured ones.
	warmEpochs = 2
	// feedPerPage scales the seeded access sample fed to the estimator
	// before each re-plan: this many views per page of the workload.
	feedPerPage = 20
	// epochClock spaces the estimator's clock between epochs. With the
	// default 60 s half-life, everything observed before an epoch decays to
	// exactly zero by the next one, so each re-plan sees only its own
	// epoch's traffic and the plan sequence is a function of the seed.
	epochClock = 1e6
)

// smallMOs is the serve-small MO size class: 1–16 KB objects, so
// per-request cost dominates per-byte cost.
var smallMOs = []workload.SizeClass{{Frac: 1, Lo: 1 * units.KB, Hi: 16 * units.KB}}

var specs = []spec{
	{
		name: "serve-small",
		why:  "Table-1 pages with 1-16 KB objects: per-request cost (round trips, admission, page rewrite, payload seeding) dominates",
		cfg: func() workload.Config {
			c := workload.DefaultConfig()
			c.MOClasses = smallMOs
			return c
		},
		warmPages:   50,
		samplePages: 40,
		exactPages:  200,
	},
	{
		name: "serve-large",
		why:  "Table-1 object sizes (40 KB-4 MB), 3-8 objects per page: per-byte cost (payload CRC, copies, verification) dominates",
		cfg: func() workload.Config {
			c := workload.DefaultConfig()
			c.CompulsoryMin, c.CompulsoryMax = 3, 8
			return c
		},
		warmPages:   30,
		samplePages: 30,
		exactPages:  200,
	},
	{
		name: "replan-drift",
		why:  "40 sites, 60,000 objects under tight budgets while traffic drifts: the planner and the plan write path (apply) dominate",
		cfg: func() workload.Config {
			c := workload.DefaultConfig()
			c.Sites = 40
			c.GlobalObjects = 60000
			return c
		},
		constrained: true,
		replan:      true,
		warmPages:   5,
		samplePages: 12,
		exactPages:  40,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// derive mixes a label into a seed (SplitMix64 finalizer), giving every
// generator its own stream of the one --seed.
func derive(seed, label uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// epochSeed is the seed of one stream in re-plan epoch e.
func epochSeed(seed, stream uint64, e int) uint64 { return derive(derive(seed, stream), uint64(e)) }

// Stream labels for derive.
const (
	streamWarm uint64 = iota + 1
	streamServe
	streamDrift
	streamFeed
	streamSample
)

// pageSampler draws pages with probability proportional to their request
// frequency — the hot/cold mix a browser population produces.
type pageSampler struct {
	cum []float64
	r   *rand.Rand
}

func newPageSampler(w *workload.Workload, seed uint64) *pageSampler {
	cum := make([]float64, len(w.Pages))
	total := 0.0
	for i := range w.Pages {
		total += float64(w.Pages[i].Freq)
		cum[i] = total
	}
	return &pageSampler{cum: cum, r: rand.New(rand.NewPCG(seed, 0))}
}

func (s *pageSampler) next() workload.PageID {
	x := (1 - s.r.Float64()) * s.cum[len(s.cum)-1] // in (0, total]
	return workload.PageID(sort.SearchFloat64s(s.cum, x))
}

// deployment is a planned, running cluster with its adaptive state.
type deployment struct {
	sp      spec
	seed    uint64
	truth   *workload.Workload // the traffic users really generate now
	est     *netsim.Estimates
	budgets model.Budgets
	env     *model.Env // the environment the live plan was built from
	plan    *model.Placement
	cluster *webserve.Cluster
	client  *webserve.Client
	freq    *estimate.Estimator
	det     *estimate.Detector
}

// setup generates the workload, plans it, starts the cluster the way
// `replserve -overload -adapt -metrics` would (admission armed at its
// zero-value defaults, metrics registry on, an estimator on the access
// tap, verifying client) and warms it up. With a tracer the plan is built
// phase by phase and checked against core.Plan.
func setup(sp spec, seed uint64, tr *tracer) (*deployment, error) {
	w, err := workload.Generate(sp.cfg(), seed)
	if err != nil {
		return nil, err
	}
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(seed))
	if err != nil {
		return nil, err
	}
	budgets := model.FullBudgets(w)
	if sp.constrained {
		budgets = budgets.Scale(w, 0.3, 0.7)
		env0, err := model.NewEnv(w, est, budgets)
		if err != nil {
			return nil, err
		}
		p0, _, err := core.Plan(env0, core.Options{})
		if err != nil {
			return nil, err
		}
		budgets.RepoCapacity = units.ReqPerSec(0.6 * float64(model.RepoLoad(env0, p0)))
	}
	env, err := model.NewEnv(w, est, budgets)
	if err != nil {
		return nil, err
	}
	plan, err := tr.setupPlan(env)
	if err != nil {
		return nil, err
	}
	freq, err := estimate.New(w, estimate.Config{})
	if err != nil {
		return nil, err
	}
	det, err := estimate.NewDetector(estimate.BaselineVector(w), estimate.DetectorConfig{})
	if err != nil {
		return nil, err
	}
	cluster, err := webserve.StartClusterOptions(w, plan, webserve.ClusterOptions{
		Metrics:   true,
		Admission: &admission.Config{Seed: seed},
		AccessTap: freq,
	})
	if err != nil {
		return nil, err
	}
	client := cluster.Client(webserve.ClientOptions{JitterSeed: seed})
	client.Verify = true
	d := &deployment{sp: sp, seed: seed, truth: w, est: est, budgets: budgets, env: env, plan: plan,
		cluster: cluster, client: client, freq: freq, det: det}
	warm := newPageSampler(w, derive(seed, streamWarm))
	for i := 0; i < sp.warmPages; i++ {
		j := warm.next()
		if _, err := client.FetchPage(cluster.PageURL(j), j); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up page %d: %w", j, err)
		}
	}
	return d, nil
}

func (d *deployment) close() {
	if d != nil && d.cluster != nil {
		_ = d.cluster.Close() // a drain timeout at shutdown changes no result
	}
}

// pageRec is one page download as the client saw it.
type pageRec struct {
	page      workload.PageID
	elapsed   time.Duration
	local     time.Duration
	remote    time.Duration
	localObjs int
	repoObjs  int
	retries   int
	fallbacks int
	failed    bool
	traced    bool
	steal     float64 // stolen share of the CPU time around the fetch (see steal.go)
}

// fetch downloads page j and records it; a page fails when it errors or
// was not served at full fidelity by its assigned servers (any fallback,
// a degraded document or a brownout tier).
func (d *deployment) fetch(j workload.PageID) (pageRec, *webserve.PageResult) {
	res, err := d.client.FetchPage(d.cluster.PageURL(j), j)
	if err != nil {
		return pageRec{page: j, failed: true}, nil
	}
	return pageRec{
		page:      j,
		elapsed:   res.Elapsed,
		local:     res.LocalChain.Elapsed,
		remote:    res.RemoteChain.Elapsed,
		localObjs: res.LocalChain.Objects,
		repoObjs:  res.RemoteChain.Objects,
		retries:   res.Retries,
		fallbacks: res.Fallbacks,
		failed:    res.Degraded() || res.Brownout > 0,
	}, res
}

// serverCounts sums the MO requests the repository and the sites served.
func (d *deployment) serverCounts() (repo, sites int64) {
	repo = d.cluster.Repo.Requests()
	for _, s := range d.cluster.Sites {
		sites += s.MORequests()
	}
	return repo, sites
}
