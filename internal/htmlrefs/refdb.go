package htmlrefs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// PageEntry is the reference database's record for one page: the stored
// document, its parsed references (in document order), and the per-
// reference local/remote decision. The paper's Section 2 prescribes exactly
// this: "the above information is included in a reference database together
// with the position of the URLs in the HTML document".
//
// The page-derived half (Doc, Refs) is computed once per page and shared by
// every later entry while the page's render inputs are unchanged; a plan
// refresh only rewrites the plan-derived half (Local, Weight).
type PageEntry struct {
	*parsedPage
	Local []bool // parallel to Refs: serve from the local server?
	// Weight is each reference's access weight (parallel to Refs):
	// compulsory objects are always needed (weight 1), optional ones carry
	// the workload's per-link access probability — the paper's per-object
	// access weights, which brownout uses to drop the least-valuable
	// content first.
	Weight []float64
	// optMedian is the median optional-reference weight, the tier-1
	// brownout threshold (0 when the page has no optional references).
	optMedian float64
}

// parsedPage is what rendering and parsing one page yields ("upon creation
// or update of an HTML file"): immutable once built.
type parsedPage struct {
	Doc  []byte
	Refs []Ref
	// idx is each reference's position in the page's Compulsory list, or in
	// its Optional list for optional references. Every position is named by
	// at least one reference.
	idx []int32
	// The render inputs besides the page ID (RenderPage's doc comment).
	site        workload.SiteID
	repoBase    string
	htmlSize    units.ByteSize
	nComp, nOpt int
}

// parsePage renders page pid against repoBase, parses the document and
// indexes every reference into the page's object lists, checking that
// parsing recovered exactly the page's references.
func parsePage(w *workload.Workload, pid workload.PageID, repoBase string) (*parsedPage, error) {
	pg := &w.Pages[pid]
	doc := RenderPage(w, pid, repoBase)
	refs := ParseRefs(doc)
	comp := make(map[workload.ObjectID]int32, len(pg.Compulsory))
	for i, k := range pg.Compulsory {
		if _, dup := comp[k]; dup {
			return nil, fmt.Errorf("htmlrefs: page %d lists compulsory object %d twice", pid, k)
		}
		comp[k] = int32(i)
	}
	opt := make(map[workload.ObjectID]int32, len(pg.Optional))
	for i, l := range pg.Optional {
		if _, dup := opt[l.Object]; dup {
			return nil, fmt.Errorf("htmlrefs: page %d lists optional object %d twice", pid, l.Object)
		}
		opt[l.Object] = int32(i)
	}
	named := make([]bool, len(pg.Compulsory)+len(pg.Optional))
	idx := make([]int32, len(refs))
	for ri, r := range refs {
		list, kind, base := comp, "compulsory", 0
		if r.Optional {
			list, kind, base = opt, "optional", len(pg.Compulsory)
		}
		i, ok := list[r.Object]
		if !ok {
			return nil, fmt.Errorf("htmlrefs: page %d references unknown %s object %d", pid, kind, r.Object)
		}
		idx[ri] = i
		named[base+int(i)] = true
	}
	for i, ok := range named {
		if ok {
			continue
		}
		if i < len(pg.Compulsory) {
			return nil, fmt.Errorf("htmlrefs: page %d compulsory object %d not recovered", pid, pg.Compulsory[i])
		}
		return nil, fmt.Errorf("htmlrefs: page %d optional object %d not recovered", pid, pg.Optional[i-len(pg.Compulsory)].Object)
	}
	return &parsedPage{
		Doc: doc, Refs: refs, idx: idx,
		site: pg.Site, repoBase: repoBase, htmlSize: pg.HTMLSize,
		nComp: len(pg.Compulsory), nOpt: len(pg.Optional),
	}, nil
}

// rendersAs reports whether RenderPage(w, pid, repoBase) is provably this
// page's document: same site, repository base and padding target, and the
// same objects at the same indices (equal lengths, every index named by a
// reference, every reference's object at its index).
func (pp *parsedPage) rendersAs(pg *workload.Page, repoBase string) bool {
	if pp.site != pg.Site || pp.repoBase != repoBase || pp.htmlSize != pg.HTMLSize ||
		pp.nComp != len(pg.Compulsory) || pp.nOpt != len(pg.Optional) {
		return false
	}
	for ri, r := range pp.Refs {
		if r.Optional {
			if pg.Optional[pp.idx[ri]].Object != r.Object {
				return false
			}
		} else if pg.Compulsory[pp.idx[ri]] != r.Object {
			return false
		}
	}
	return true
}

// decide fills the entry's plan-derived half from the placement and the
// workload: each reference's local/remote decision, its access weight (1
// for compulsory references, the link's access probability for optional
// ones) and the optional median that thresholds tier-1 brownout. scratch is
// reused across calls and returned.
func (e *PageEntry) decide(pg *workload.Page, pid workload.PageID, p *model.Placement, scratch []float64) []float64 {
	scratch = scratch[:0]
	for ri, r := range e.Refs {
		i := int(e.idx[ri])
		if r.Optional {
			e.Local[ri] = p.OptLocal(pid, i)
			e.Weight[ri] = pg.Optional[i].Prob
			scratch = append(scratch, e.Weight[ri])
		} else {
			e.Local[ri] = p.CompLocal(pid, i)
			e.Weight[ri] = 1
		}
	}
	e.optMedian = 0
	if len(scratch) > 0 {
		sort.Float64s(scratch)
		e.optMedian = scratch[len(scratch)/2]
	}
	return scratch
}

// RefDB is one local server's reference database. Each hosted page is
// parsed once (at "page creation/update" time); a plan refresh derives a
// new generation of entries that shares the parsed documents and swaps it
// in whole. Lookups at serving time are read-only and safe for concurrent
// use with updates guarded by an RWMutex (plans change rarely, pages are
// served constantly). Published entry maps are never mutated.
type RefDB struct {
	site workload.SiteID

	mu       sync.RWMutex
	repoBase string
	entries  map[workload.PageID]*PageEntry
	// retired holds the entries the last Commit dropped.
	retired map[workload.PageID]*PageEntry
}

// Generation is a prepared reference database for one (workload,
// placement): every hosted page's entry, ready for Commit to publish.
type Generation struct {
	repoBase string
	entries  map[workload.PageID]*PageEntry
}

// BuildRefDB parses every page hosted at site i (rendered against
// repoBase) and applies the placement's decisions.
func BuildRefDB(w *workload.Workload, i workload.SiteID, p *model.Placement, repoBase string) (*RefDB, error) {
	db := &RefDB{site: i}
	if err := db.Rebuild(w, p, repoBase); err != nil {
		return nil, err
	}
	return db, nil
}

// ApplyPlacement updates every page's local/remote decisions from a new
// placement — the step that follows a replication-plan refresh. It is
// Rebuild against the database's own repository base, so w's page
// assignment for the site governs which pages the database holds.
func (db *RefDB) ApplyPlacement(w *workload.Workload, p *model.Placement) error {
	db.mu.RLock()
	repoBase := db.repoBase
	db.mu.RUnlock()
	return db.Rebuild(w, p, repoBase)
}

// Rebuild is Prepare then Commit: the database is replaced for a
// (possibly re-homed) workload, the site's page list under w getting the
// placement's decisions, and a concurrent reader sees either the old
// database or the new one, never a mix. w must index objects identically
// to the construction workload (repair's re-homed clones do).
func (db *RefDB) Rebuild(w *workload.Workload, p *model.Placement, repoBase string) error {
	g, err := db.Prepare(w, p, repoBase)
	if err != nil {
		return err
	}
	db.Commit(g)
	return nil
}

// Prepare derives the database for (w, p) without publishing it. A page
// the database already holds — hosted or retired — whose render inputs are
// unchanged keeps its parsed document; only its decisions and weights are
// recomputed. Any other page is rendered against repoBase, parsed and
// validated, and a page that fails validation fails the whole generation.
func (db *RefDB) Prepare(w *workload.Workload, p *model.Placement, repoBase string) (*Generation, error) {
	db.mu.RLock()
	entries, retired := db.entries, db.retired
	db.mu.RUnlock()

	pids := w.Sites[db.site].Pages
	parsed := make([]*parsedPage, len(pids))
	nrefs := 0
	for n, pid := range pids {
		pg := &w.Pages[pid]
		e := entries[pid]
		if e == nil {
			e = retired[pid]
		}
		if e != nil && e.rendersAs(pg, repoBase) {
			parsed[n] = e.parsedPage
		} else {
			pp, err := parsePage(w, pid, repoBase)
			if err != nil {
				return nil, err
			}
			parsed[n] = pp
		}
		nrefs += len(parsed[n].Refs)
	}

	// One allocation each for the entries and their decision and weight
	// arrays, carved per page.
	g := &Generation{repoBase: repoBase, entries: make(map[workload.PageID]*PageEntry, len(pids))}
	slab := make([]PageEntry, len(pids))
	local := make([]bool, nrefs)
	weight := make([]float64, nrefs)
	var scratch []float64
	for n, pid := range pids {
		e := &slab[n]
		e.parsedPage = parsed[n]
		k := len(e.Refs)
		e.Local, local = local[:k:k], local[k:]
		e.Weight, weight = weight[:k:k], weight[k:]
		scratch = e.decide(&w.Pages[pid], pid, p, scratch)
		g.entries[pid] = e
	}
	return g, nil
}

// Commit publishes a prepared generation in one swap. The hosted entries
// it drops are retired: still servable, and reusable by Prepare, until the
// next commit, so a client that resolved a page's old host just before the
// swap is still served. Whatever the previous commit retired goes now.
func (db *RefDB) Commit(g *Generation) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var retired map[workload.PageID]*PageEntry
	for pid, e := range db.entries {
		if _, ok := g.entries[pid]; ok {
			continue
		}
		if retired == nil {
			retired = make(map[workload.PageID]*PageEntry)
		}
		retired[pid] = e
	}
	db.repoBase, db.entries, db.retired = g.repoBase, g.entries, retired
}

// Pages returns the number of pages in the database.
func (db *RefDB) Pages() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}

// Serve produces the document for page pid as sent to a client: stored
// bytes with every locally-assigned reference rewritten from the repository
// base URL to localBase — the paper's on-the-fly replacement. ok is false
// for pages this server neither hosts nor retired at the last commit.
func (db *RefDB) Serve(pid workload.PageID, localBase string) ([]byte, bool) {
	doc, _, ok := db.ServeTier(pid, localBase, 0)
	return doc, ok
}

// ServeTier is Serve under a brownout tier: tier 0 is full fidelity; at
// tier 1 the optional references whose access weight falls below the
// page's optional median are dropped (lowest-weight MOs first — the
// paper's per-object access weights ordering the sacrifice); at tier 2 and
// above every optional reference is dropped. Compulsory references always
// survive — a browned-out page still renders. A dropped reference's URL is
// rewritten to "#", so clients neither follow nor count it. dropped
// reports how many references were removed.
//
//repllint:hotpath — the page rewrite, called per live page request
func (db *RefDB) ServeTier(pid workload.PageID, localBase string, tier int) (doc []byte, dropped int, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	entry, ok := db.entries[pid]
	if !ok {
		if entry, ok = db.retired[pid]; !ok {
			return nil, 0, false
		}
	}
	// A rewrite swaps the repository base for localBase, so this bounds
	// the output.
	var out bytes.Buffer
	out.Grow(len(entry.Doc) + len(entry.Refs)*max(0, len(localBase)-len(entry.repoBase)))
	var num [20]byte
	prev := 0
	for ri, r := range entry.Refs {
		if r.Optional && tier > 0 &&
			(tier >= 2 || entry.Weight[ri] < entry.optMedian) {
			out.Write(entry.Doc[prev:r.Start])
			out.WriteString("#")
			prev = r.End
			dropped++
			continue
		}
		if !entry.Local[ri] {
			continue
		}
		out.Write(entry.Doc[prev:r.Start])
		out.WriteString(localBase)
		out.WriteString(MOPathPrefix)
		out.Write(strconv.AppendInt(num[:0], int64(r.Object), 10))
		prev = r.End
	}
	out.Write(entry.Doc[prev:])
	return out.Bytes(), dropped, true
}

// Decisions returns a copy of the page's reference decisions (diagnostics
// and tests).
func (db *RefDB) Decisions(pid workload.PageID) ([]Ref, []bool, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	entry, ok := db.entries[pid]
	if !ok {
		return nil, nil, false
	}
	return append([]Ref(nil), entry.Refs...), append([]bool(nil), entry.Local...), true
}
