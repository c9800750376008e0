package exec

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/obs"
	"mqo/internal/physical"
	"mqo/internal/storage"
)

// NodeProfile is the measured execution profile of one instantiated
// operator. Wall and Pages are inclusive of the operator's children (the
// usual EXPLAIN ANALYZE convention); Rows counts the rows this operator
// emitted to its parent. Wall leaves out the time the operator's task spent
// parked while other tasks ran; a page that a shared pass read for several
// scans counts in the Pages of the first of them, and its time in the Wall
// of each, split evenly. A materialization's Pages include its write. A
// scan's gates run its ancestors' tests below the operators in between —
// every keyed join's above it, through the joins between — so a node under
// gated joins emits only the rows that also pass
// every one of their key tests: a Filter or a join in between counts the
// rows that passed them all, not its own selectivity. A scan's Rows plus
// Skipped is the rows it examined, and its Skipped is the sum of the Gated
// of the operators that gated it: each row a scan drops is credited to the
// gate that was first to fail it.
type NodeProfile struct {
	Node    int     `json:"node"`
	Op      string  `json:"op"`
	Mat     bool    `json:"mat,omitempty"`
	EstCost float64 `json:"est_cost"` // optimizer cost-model seconds for the node
	EstRows float64 `json:"est_rows"` // optimizer cardinality estimate

	// Scans and index probes: the columns decoded out of those the relation
	// stores (StoredCols is 0 on every other operator).
	Cols       int `json:"cols,omitempty"`
	StoredCols int `json:"stored_cols,omitempty"`

	Rows    int64         `json:"rows"`
	Skipped int64         `json:"skipped,omitempty"` // scans: rows the gates dropped without decoding them
	Gated   int64         `json:"gated,omitempty"`   // filters and joins: rows their gate was the first to drop at a scan
	Pairs   int64         `json:"pairs,omitempty"`   // joins: predicate evaluations, exact
	Kept    int64         `json:"kept,omitempty"`    // joins and sorts: input rows copied into the operator's own storage
	Keys    string        `json:"keys,omitempty"`    // keyed BNLJoins: "bitmap" or "hash", how the last Open tested keys
	Shared  int           `json:"shared,omitempty"`  // scans: the cursors fed by the largest pass that fed this one
	Pages   int64         `json:"pages"`             // buffer-pool misses, inclusive
	Bytes   int64         `json:"bytes"`             // Pages × storage.PageSize
	Wall    time.Duration `json:"wall_ns"`

	Children []*NodeProfile `json:"children,omitempty"`
}

// BatchProfile is the profile of one executed batch plan: one operator tree
// per materialization (dependency order) and one per query root.
type BatchProfile struct {
	Mats    []*NodeProfile `json:"mats,omitempty"`
	Queries []*NodeProfile `json:"queries"`
}

// Visit walks every profile node, parents before children.
func (bp *BatchProfile) Visit(fn func(*NodeProfile)) {
	var walk func(*NodeProfile)
	walk = func(p *NodeProfile) {
		fn(p)
		for _, c := range p.Children {
			walk(c)
		}
	}
	for _, p := range bp.Mats {
		walk(p)
	}
	for _, p := range bp.Queries {
		walk(p)
	}
}

// profiler builds NodeProfile trees as the builder instantiates operators:
// a stack mirrors the build recursion, so each iterator tree becomes one
// profile tree per instantiation (materializations and query roots are
// separate roots even when they reference the same plan node). Each task of
// a run has its own.
type profiler struct {
	stack []*NodeProfile
	roots []*NodeProfile
	last  *NodeProfile // the node of the instantiation that returned last

	// fetchWall is the time spent so far in the Next calls of scans that
	// read a page, each timed exactly; see statIter.
	fetchWall time.Duration
	// parked is the time the task has spent parked so far, less its share
	// of the pages read for it meanwhile (sched.step).
	parked time.Duration
}

func (pr *profiler) push(p *NodeProfile) {
	if n := len(pr.stack); n > 0 {
		pr.stack[n-1].Children = append(pr.stack[n-1].Children, p)
	} else {
		pr.roots = append(pr.roots, p)
	}
	pr.stack = append(pr.stack, p)
}

func (pr *profiler) pop() { pr.stack = pr.stack[:len(pr.stack)-1] }

// opName labels the operator an instantiation actually runs: a consumer
// read of a materialized node is a temp/cache scan, not the node's
// computing algorithm.
func opName(pn *physical.PlanNode, asConsumer bool, env *Env) string {
	if asConsumer && pn.Mat {
		if name, ok := env.Cache.spoolName(pn.N); ok && pn.E.Kind != physical.IndexBuildEnf {
			return "CacheScan(" + name + ")"
		}
		return "TempScan(" + tempName(pn) + ")"
	}
	if pn.E.Kind == physical.CacheScanOp {
		// The tier tag makes the per-tier pricing auditable in EXPLAIN
		// ANALYZE: a warm hit's est cost is charged at WarmReadS per page,
		// a RAM hit's at ReadS.
		if pn.E.Arm.CacheTier == cost.TierWarm {
			return "CacheScan(" + pn.E.Arm.CacheName + ")@warm"
		}
		return "CacheScan(" + pn.E.Arm.CacheName + ")"
	}
	if pn.E.Kind == physical.InvokePartial {
		// Partial binding-cache hit: how many bindings scan their cached
		// tables versus recompute through the body (warm-tier scans tagged,
		// matching the CacheScan rendering above).
		warm := 0
		for _, bs := range pn.E.Arm.BindScans {
			if bs.Tier == cost.TierWarm {
				warm++
			}
		}
		s := fmt.Sprintf("InvokePartial(%d cached, %d residual)",
			len(pn.E.Arm.BindScans), len(pn.E.Arm.ResidualBinds))
		if warm > 0 {
			s += fmt.Sprintf("@warm×%d", warm)
		}
		return s
	}
	return pn.E.Kind.String()
}

// statIter wraps an operator with measurement. The tasks of a run take turns
// on the run's goroutine, so plain (non-atomic) accumulation into the profile
// node and the profiler is safe. Every call is timed net of the time its task
// was parked during it (profiler.parked), which is other tasks' time.
//
// Rows, pairs and pages are exact. Page misses are counted where they are
// caused — by a scan's cursor, an index probe, an Invoke's cache scans and
// spool writes — and read off the operator (pageMisses) when it closes;
// sumPages then makes them inclusive, once per run.
//
// Open and Close are timed exactly. Next is timed exactly while its calls are
// slow and sampled once they are cheap, because two clock reads around a call
// that hands over one row cost several times the call, and every serving
// batch runs profiled. A pipelined tree is bursty, though: one Next of a scan
// in some forty decodes a page and costs a hundred times its neighbours, and
// it must neither be scaled by a period learnt from them nor teach them its
// own. So the two kinds of call are kept apart:
//
//   - A scan says how many decoded rows it has in hand (decodedAhead). The
//     call after those reads a page: it is timed exactly, and its time goes to
//     the profiler's fetchWall as well as to the scan. The calls that hand
//     over a decoded row pass through untimed and uncounted (their rows were
//     counted when the page was read) — each costs less than this wrapper
//     does — so a scan's Wall is the time it spent reading and decoding pages.
//   - Every other operator samples. It sees fetchWall move across its own Next
//     and takes that part of the call as it is; the rest of a timed call
//     stands for the calls skipped before it, unless a page was read during
//     it: then the call says nothing about its cheap neighbours, counts for
//     itself alone, and the next call is timed in its place.
//
// Wall of an operator with many cheap calls is therefore an estimate, but not
// one that a page read landing on a timed call can multiply.
type statIter struct {
	child Iterator
	p     *NodeProfile
	prof  *profiler
	scan  interface{ decodedAhead() int } // child, when it is one

	ahead  int // scans: decoded rows already in p.Rows that Next has still to hand over
	skip   int // Next calls to let pass untimed before timing one
	period int // calls the next timed Next stands for: itself and those skipped
}

const (
	// clockBudget is the operator time per timed Next that keeps the clock
	// reads (about 70 ns a pair) near 2 % of it: after a call of d, the
	// next clockBudget/d calls pass untimed.
	clockBudget = 5 * time.Microsecond
	// maxPeriod bounds that run, so that a slow call after many cheap ones
	// is not scaled beyond it.
	maxPeriod = 64
)

// epoch makes a clock read one monotonic reading (time.Since) where time.Now
// takes the wall clock's as well.
var epoch = time.Now()

func clock() time.Duration { return time.Since(epoch) }

// clockCost is what a pair of clock reads measures with nothing in between.
// It is taken off every timed Next: left in, it would be most of what a call
// handing over one row measures, times the period.
var clockCost = func() time.Duration {
	best := time.Hour
	for i := 0; i < 16; i++ {
		start := clock()
		best = min(best, clock()-start)
	}
	return best
}()

func newStatIter(child Iterator, p *NodeProfile, prof *profiler) *statIter {
	s := &statIter{child: child, p: p, prof: prof, period: 1}
	s.scan, _ = child.(interface{ decodedAhead() int })
	return s
}

// uncount takes back the decoded rows a scan's consumer left unpulled.
func (s *statIter) uncount() {
	s.p.Rows -= int64(s.ahead)
	s.ahead = 0
}

func (s *statIter) Open() error {
	s.uncount()
	start, parked := clock(), s.prof.parked
	err := s.child.Open()
	s.p.Wall += clock() - start - (s.prof.parked - parked)
	return err
}

func (s *statIter) Next() (storage.Row, bool, error) {
	if s.scan != nil {
		if s.ahead > 0 {
			s.ahead--
			return s.child.Next()
		}
		start, parked := clock(), s.prof.parked
		r, ok, err := s.child.Next()
		d := max(clock()-start-clockCost-(s.prof.parked-parked), 0)
		s.p.Wall += d
		s.prof.fetchWall += d
		if ok {
			s.ahead = s.scan.decodedAhead()
			s.p.Rows += 1 + int64(s.ahead)
		}
		return r, ok, err
	}
	fetched, parked := s.prof.fetchWall, s.prof.parked
	var start time.Duration
	timed := s.skip == 0
	if timed {
		start = clock()
	} else {
		s.skip--
	}
	r, ok, err := s.child.Next()
	fetched = s.prof.fetchWall - fetched // the part of this call spent reading pages below
	if timed {
		d := max(clock()-start-clockCost-fetched-(s.prof.parked-parked), 1)
		if fetched > 0 {
			s.p.Wall += d
		} else {
			s.p.Wall += d * time.Duration(s.period)
			s.period = 1 + int(min(clockBudget/d, maxPeriod-1))
			s.skip = s.period - 1
		}
	}
	s.p.Wall += fetched
	if ok {
		s.p.Rows++
	}
	return r, ok, err
}

func (s *statIter) Close() error {
	s.uncount()
	start, parked := clock(), s.prof.parked
	err := s.child.Close()
	s.p.Wall += clock() - start - (s.prof.parked - parked)
	if j, ok := s.child.(interface{ pairsEvaluated() int64 }); ok {
		s.p.Pairs = j.pairsEvaluated()
	}
	if k, ok := s.child.(interface{ rowsKept() int64 }); ok {
		s.p.Kept = k.rowsKept()
	}
	if g, ok := s.child.(interface{ rowsSkipped() int64 }); ok {
		s.p.Skipped = g.rowsSkipped()
	}
	if g, ok := s.child.(interface{ rowsGated() int64 }); ok {
		s.p.Gated = g.rowsGated()
	}
	if k, ok := s.child.(interface{ keyTest() string }); ok {
		s.p.Keys = k.keyTest()
	}
	if l, ok := s.child.(interface{ pageMisses() int64 }); ok {
		s.p.Pages = l.pageMisses()
	}
	if x, ok := s.child.(interface{ sharedBy() int }); ok {
		s.p.Shared = x.sharedBy()
	}
	return err
}

func (s *statIter) Schema() algebra.Schema { return s.child.Schema() }

// buffered forwards the child's, so a consumer sizes its storage alike in
// traced and plain runs; 0 is "unknown".
func (s *statIter) buffered() int { return bufferedRows(s.child) }

// gate forwards a gate to the child, so a profiled run decodes what a plain
// one does.
func (s *statIter) gate(by any, g *gate) bool { return setGate(s.child, by, g) }

// sumPages turns the page misses each operator caused itself into the
// inclusive counts NodeProfile.Pages documents, children before parents.
func (bp *BatchProfile) sumPages() {
	var sum func(p *NodeProfile) int64
	sum = func(p *NodeProfile) int64 {
		for _, c := range p.Children {
			p.Pages += sum(c)
		}
		p.Bytes = p.Pages * storage.PageSize
		return p.Pages
	}
	for _, roots := range [][]*NodeProfile{bp.Mats, bp.Queries} {
		for _, p := range roots {
			sum(p)
		}
	}
}

// Executor metrics on the default registry.
var (
	execRuns       = obs.Default().Counter("mqo_exec_runs_total", "Executed batch plans.")
	execRunSeconds = obs.Default().Histogram("mqo_exec_run_seconds", "Batch plan execution wall time in seconds.")
	execRows       = obs.Default().Counter("mqo_exec_rows_total", "Rows returned to clients.")
	execPagesRead  = obs.Default().Counter("mqo_exec_pages_read_total", "Buffer-pool page misses during execution.")
	execPagesWrite = obs.Default().Counter("mqo_exec_pages_written_total", "Pages written back during execution.")
	execSimSeconds = obs.Default().FloatCounter("mqo_exec_sim_seconds_total", "Simulated cost-model seconds of executed I/O.")
)

// metricOp strips instance detail ("TempScan(mat_12)" → "TempScan") so
// per-operator series stay low-cardinality.
func metricOp(op string) string {
	if i := strings.IndexByte(op, '('); i >= 0 {
		return op[:i]
	}
	return op
}

// opMetrics is one operator's series on the registry.
type opMetrics struct {
	rows, pages *obs.Counter
	seconds     *obs.FloatCounter
}

// opSeries holds each operator's series once it has been registered, by
// metricOp name, so a run looks them up without the registry's lock.
var opSeries = struct {
	mu   sync.RWMutex
	byOp map[string]*opMetrics
}{byOp: map[string]*opMetrics{}}

// operatorMetrics returns op's series, registering them the first time op
// runs.
func operatorMetrics(op string) *opMetrics {
	opSeries.mu.RLock()
	m := opSeries.byOp[op]
	opSeries.mu.RUnlock()
	if m != nil {
		return m
	}
	reg := obs.Default()
	m = &opMetrics{
		rows:    reg.Counter("mqo_exec_operator_rows_total", "Rows emitted by executor operators.", obs.L("op", op)),
		pages:   reg.Counter("mqo_exec_operator_pages_total", "Inclusive page misses by executor operators.", obs.L("op", op)),
		seconds: reg.FloatCounter("mqo_exec_operator_seconds_total", "Inclusive wall seconds by executor operators.", obs.L("op", op)),
	}
	opSeries.mu.Lock()
	opSeries.byOp[op] = m
	opSeries.mu.Unlock()
	return m
}

// recordRunMetrics exports a completed run — and, when profiled, its
// per-operator totals — to the registry.
func recordRunMetrics(stats *RunStats) {
	execRuns.Inc()
	execRunSeconds.ObserveDuration(stats.Wall)
	execRows.Add(stats.RowsOut)
	execPagesRead.Add(stats.IO.Reads)
	execPagesWrite.Add(stats.IO.Writes)
	execSimSeconds.Add(stats.SimTime)
	if stats.Profile == nil {
		return
	}
	stats.Profile.Visit(func(p *NodeProfile) {
		m := operatorMetrics(metricOp(p.Op))
		m.rows.Add(p.Rows)
		m.pages.Add(p.Pages)
		m.seconds.Add(p.Wall.Seconds())
	})
}

// FormatAnalyze renders the EXPLAIN ANALYZE view of a profiled run:
// per node the optimizer's estimate (cost-model seconds, cardinality)
// against the measured rows, inclusive pages and inclusive wall time; a scan
// whose gates dropped rows shows skipped=, the rows it dropped undecoded, the
// filter or join whose gate was first to drop them gated=, and every node
// between the scan and the joins that gated it shows rows= after their key
// tests too (NodeProfile); a
// join also shows pairs=, the predicate evaluations it took (what a keyed
// probe saves against outer × inner), a join or a sort kept=, the input rows
// it copied into storage of its own (what a join that holds its smaller input
// saves against the whole of its right one), a keyed BNLJoin keys=bitmap or
// keys=hash, how it tested for a key's bucket, a scan or index probe
// cols=kept/stored, the columns it decoded out of those the relation holds,
// and a scan fed by a pass it shared with k-1 other scans shared=k.
func FormatAnalyze(stats RunStats) string {
	var sb strings.Builder
	if stats.Profile == nil {
		sb.WriteString("no profile recorded (run with profiling enabled)\n")
		return sb.String()
	}
	var render func(p *NodeProfile, indent int)
	render = func(p *NodeProfile, indent int) {
		mat := ""
		if p.Mat {
			mat = " [mat]"
		}
		skipped := ""
		if p.Skipped > 0 {
			skipped = fmt.Sprintf(" skipped=%d", p.Skipped)
		}
		gated := ""
		if p.Gated > 0 {
			gated = fmt.Sprintf(" gated=%d", p.Gated)
		}
		pairs := ""
		if p.Pairs > 0 {
			pairs = fmt.Sprintf(" pairs=%d", p.Pairs)
		}
		kept := ""
		if p.Kept > 0 {
			kept = fmt.Sprintf(" kept=%d", p.Kept)
		}
		keys := ""
		if p.Keys != "" {
			keys = " keys=" + p.Keys
		}
		cols := ""
		if p.StoredCols > 0 {
			cols = fmt.Sprintf(" cols=%d/%d", p.Cols, p.StoredCols)
		}
		shared := ""
		if p.Shared > 1 {
			shared = fmt.Sprintf(" shared=%d", p.Shared)
		}
		fmt.Fprintf(&sb, "%s%s%s  (est cost=%.4fs rows=%.0f) (actual rows=%d%s%s%s%s%s%s%s pages=%d bytes=%d time=%s)\n",
			strings.Repeat("  ", indent), p.Op, mat, p.EstCost, p.EstRows,
			p.Rows, skipped, gated, pairs, kept, keys, cols, shared, p.Pages, p.Bytes, p.Wall.Round(time.Microsecond))
		for _, c := range p.Children {
			render(c, indent+1)
		}
	}
	if len(stats.Profile.Mats) > 0 {
		sb.WriteString("Materializations:\n")
		for _, m := range stats.Profile.Mats {
			render(m, 1)
		}
	}
	for i, q := range stats.Profile.Queries {
		fmt.Fprintf(&sb, "Query %d:\n", i+1)
		render(q, 1)
	}
	fmt.Fprintf(&sb, "Total: rows=%d reads=%d writes=%d wall=%s sim=%.4fs\n",
		stats.RowsOut, stats.IO.Reads, stats.IO.Writes, stats.Wall.Round(time.Microsecond), stats.SimTime)
	return sb.String()
}
