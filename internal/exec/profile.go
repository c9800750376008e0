package exec

import (
	"fmt"
	"strings"
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
// emitted to its parent.
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

	Rows  int64         `json:"rows"`
	Pairs int64         `json:"pairs,omitempty"` // joins: predicate evaluations, exact
	Pages int64         `json:"pages"`           // buffer-pool misses, inclusive
	Bytes int64         `json:"bytes"`           // Pages × storage.PageSize
	Wall  time.Duration `json:"wall_ns"`

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
// separate roots even when they reference the same plan node).
type profiler struct {
	stack []*NodeProfile
	roots []*NodeProfile
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
		if pn.E.CacheTier == cost.TierWarm {
			return "CacheScan(" + pn.E.CacheName + ")@warm"
		}
		return "CacheScan(" + pn.E.CacheName + ")"
	}
	if pn.E.Kind == physical.InvokePartial {
		// Partial binding-cache hit: how many bindings scan their cached
		// tables versus recompute through the body (warm-tier scans tagged,
		// matching the CacheScan rendering above).
		warm := 0
		for _, bs := range pn.E.BindScans {
			if bs.Tier == cost.TierWarm {
				warm++
			}
		}
		s := fmt.Sprintf("InvokePartial(%d cached, %d residual)",
			len(pn.E.BindScans), len(pn.E.ResidualBinds))
		if warm > 0 {
			s += fmt.Sprintf("@warm×%d", warm)
		}
		return s
	}
	return pn.E.Kind.String()
}

// statIter wraps an operator with measurement. The executor drains plans on
// a single goroutine, so plain (non-atomic) accumulation into the profile
// node is safe. Rows, pairs and pages are exact: the pool's miss counter is
// read around each call and attributes page misses inclusively to the
// subtree. Open and Close are timed exactly. Next is timed exactly while its
// calls are slow and sampled once they are cheap, because two clock reads
// around a call that hands over one buffered row cost more than the call
// (mqobench's observe experiment gates the whole wrapper at 5 % of an
// unprofiled run); Wall of an operator with many cheap calls is therefore an
// estimate, and a parent's can come out below its child's.
type statIter struct {
	child Iterator
	p     *NodeProfile
	pool  *storage.BufferPool

	skip   int // Next calls to let pass untimed before timing one
	period int // calls the next timed Next stands for: itself and those skipped
}

const (
	// clockBudget is the operator time per timed Next that keeps the clock
	// reads (about 100 ns a pair) near 2 % of it: after a call of d, the
	// next clockBudget/d calls pass untimed.
	clockBudget = 5 * time.Microsecond
	// maxPeriod bounds that run, so that a slow call after many cheap ones
	// is not scaled beyond it.
	maxPeriod = 64
)

func newStatIter(child Iterator, p *NodeProfile, pool *storage.BufferPool) *statIter {
	return &statIter{child: child, p: p, pool: pool, period: 1}
}

func (s *statIter) measure(start time.Time, misses int64) {
	s.p.Wall += time.Since(start)
	s.p.Pages += s.pool.Misses() - misses
}

func (s *statIter) Open() error {
	defer s.measure(time.Now(), s.pool.Misses())
	return s.child.Open()
}

func (s *statIter) Next() (storage.Row, bool, error) {
	misses := s.pool.Misses()
	var start time.Time
	timed := s.skip == 0
	if timed {
		start = time.Now()
	} else {
		s.skip--
	}
	r, ok, err := s.child.Next()
	if timed {
		d := time.Since(start)
		s.p.Wall += d * time.Duration(s.period)
		s.period = 1 + int(min(clockBudget/max(d, 1), maxPeriod-1))
		s.skip = s.period - 1
	}
	s.p.Pages += s.pool.Misses() - misses
	if ok {
		s.p.Rows++
	}
	return r, ok, err
}

func (s *statIter) Close() error {
	defer s.measure(time.Now(), s.pool.Misses())
	if j, ok := s.child.(interface{ pairsEvaluated() int64 }); ok {
		s.p.Pairs = j.pairsEvaluated()
	}
	return s.child.Close()
}

func (s *statIter) Schema() algebra.Schema { return s.child.Schema() }

// buffered forwards the child's, so a join sizes its buffer alike in traced
// and plain runs; 0 is "unknown".
func (s *statIter) buffered() int {
	if b, ok := s.child.(interface{ buffered() int }); ok {
		return b.buffered()
	}
	return 0
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
	reg := obs.Default()
	stats.Profile.Visit(func(p *NodeProfile) {
		p.Bytes = p.Pages * storage.PageSize
		op := metricOp(p.Op)
		reg.Counter("mqo_exec_operator_rows_total", "Rows emitted by executor operators.", obs.L("op", op)).Add(p.Rows)
		reg.Counter("mqo_exec_operator_pages_total", "Inclusive page misses by executor operators.", obs.L("op", op)).Add(p.Pages)
		reg.FloatCounter("mqo_exec_operator_seconds_total", "Inclusive wall seconds by executor operators.", obs.L("op", op)).Add(p.Wall.Seconds())
	})
}

// FormatAnalyze renders the EXPLAIN ANALYZE view of a profiled run:
// per node the optimizer's estimate (cost-model seconds, cardinality)
// against the measured rows, inclusive pages and inclusive wall time; a
// join also shows pairs=, the predicate evaluations it took (what a keyed
// probe saves against outer × inner), a scan or index probe cols=kept/stored,
// the columns it decoded out of those the relation holds.
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
		pairs := ""
		if p.Pairs > 0 {
			pairs = fmt.Sprintf(" pairs=%d", p.Pairs)
		}
		cols := ""
		if p.StoredCols > 0 {
			cols = fmt.Sprintf(" cols=%d/%d", p.Cols, p.StoredCols)
		}
		fmt.Fprintf(&sb, "%s%s%s  (est cost=%.4fs rows=%.0f) (actual rows=%d%s%s pages=%d bytes=%d time=%s)\n",
			strings.Repeat("  ", indent), p.Op, mat, p.EstCost, p.EstRows,
			p.Rows, pairs, cols, p.Pages, p.Bytes, p.Wall.Round(time.Microsecond))
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
