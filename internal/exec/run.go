package exec

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/obs"
	"mqo/internal/physical"
	"mqo/internal/storage"
)

// QueryResult is the output of one query of the batch.
type QueryResult struct {
	Schema algebra.Schema
	Rows   []storage.Row
}

// CacheIO connects one run to the cross-batch result cache. Spools maps
// physical nodes to the cache-table names their computed rows must be
// written to (this batch's admissions): a spooled materialization writes
// the cache table instead of a per-run temp, and a spooled query root is
// written after its rows are drained. Cache *reads* need no map — the
// table name travels inside the plan's CacheScan expressions, armed on the
// DAG before optimization.
type CacheIO struct {
	Spools map[*physical.Node]string
	// BindSpools maps Invoke plan nodes to binding-key → cache-table
	// assignments for residual bindings admitted at binding granularity
	// (§5): the invoke iterator tees each listed binding's rows into its
	// own cache table as it computes them, so the next batch's pre-pass
	// can arm those bindings as partial hits.
	BindSpools map[*physical.Node]map[string]string
}

// spoolName resolves the cache-table name a node's result must be spooled
// to, if any.
func (c *CacheIO) spoolName(n *physical.Node) (string, bool) {
	if c == nil {
		return "", false
	}
	name, ok := c.Spools[n]
	return name, ok
}

// bindSpools resolves an Invoke node's per-binding spool assignments, nil
// when none.
func (c *CacheIO) bindSpools(n *physical.Node) map[string]string {
	if c == nil {
		return nil
	}
	return c.BindSpools[n]
}

// RunStats reports the measured execution profile of a batch run: page I/O
// from the buffer pool and the simulated time those I/Os cost under the
// paper's model (the Figure 7 substitute measurement).
type RunStats struct {
	IO      storage.IOStats
	WarmIO  storage.IOStats // warm-tier (disk-backed cache) page I/O
	SimTime float64         // seconds, from the cost model's I/O constants
	Wall    time.Duration
	RowsOut int64
	// Profile is the per-operator measurement tree recorded when
	// Env.Profile is set (nil otherwise). Excluded from JSON so the wire
	// shapes of /stats and bench artifacts are unchanged; EXPLAIN ANALYZE
	// consumes it in-process.
	Profile *BatchProfile `json:"-"`
}

// Run executes an optimized plan against the database: materializes shared
// results, executes every query of the batch, and reports per-query results
// plus measured statistics. Each materialization and each query root is a
// task (sched): a query starts once the materializations it reads have
// committed, a materialization once those it reads have, and the scans of
// the tasks that run meanwhile are fed by shared passes, one page fault and
// one record decode for all of them. The run's temporary tables are its own
// (storage.RunTemps) and are dropped before returning, so concurrent Run
// calls on one DB are safe and proceed in parallel over the buffer pool;
// they can never observe each other's temps. Under concurrency the per-run
// IOStats are approximate (the before/after pool snapshots overlap with
// other runs); serial callers get exact counts.
//
// The context is checked before every page a shared pass reads and once per
// drainCheckEvery rows pulled, by the drain of a root's output and by the
// operators that pull a whole input before delivering a row (a sort, a block
// nested-loops join's Open), and once per drainCheckEvery rows dropped by a
// filter or a scan's gates; a cancelled context aborts the run with
// ctx.Err(), as does the first error of any task; either way every task is
// stopped and the temporary tables are dropped before Run returns.
func Run(ctx context.Context, db *storage.DB, model cost.Model, plan *physical.Plan, env *Env) ([]QueryResult, RunStats, error) {
	if env == nil {
		env = &Env{}
	}
	if env.Params == nil {
		env.Params = map[string]algebra.Value{}
	}
	run := db.BeginRun()
	defer run.End()
	b := &builder{ctx: ctx, db: db, temps: run, env: env}
	if env.Profile {
		b.prof = &profiler{}
	}
	span := obs.StartSpan("exec", obs.TrackFrom(ctx), nil)
	defer span.End()
	start := time.Now()
	before := db.Pool.Stats()
	warmBefore := db.WarmIO()

	roots := plan.QueryRoots()
	results := make([]QueryResult, len(roots))
	if len(plan.Mats) == 0 && len(roots) == 1 {
		// One query and nothing to materialize: nothing to wait for and
		// nothing to share, so its tree is drained right here.
		var err error
		if results[0], err = b.answer(roots[0]); err != nil {
			return nil, RunStats{}, err
		}
	} else {
		b.sched = newSched(ctx, env)
		var mats map[*physical.PlanNode]*task // the task of each materialization
		if len(plan.Mats) > 0 {
			mats = make(map[*physical.PlanNode]*task, len(plan.Mats))
		}
		for _, m := range plan.Mats {
			if t := b.sched.add(b, m, true, mats); mats[m] == nil {
				mats[m] = t
			}
		}
		for _, q := range roots {
			b.sched.add(b, q, false, mats)
		}
		if err := b.sched.run(); err != nil {
			return nil, RunStats{}, err
		}
		for i, t := range b.sched.tasks[len(plan.Mats):] {
			results[i] = t.res
		}
	}

	var rowsOut int64
	for i, q := range roots {
		res := results[i]
		// Spool an admitted query root into the cache namespace: the rows
		// are in hand, so the only extra cost is the sequential write the
		// admission already accounted for. Mat roots were spooled by
		// materialize; a repeated root in one batch spools once.
		if name, ok := env.Cache.spoolName(q.N); ok && !q.Mat {
			if _, err := db.Cache(name); err != nil {
				ct := db.CreateCache(name, res.Schema)
				for _, r := range res.Rows {
					if _, err := ct.Heap.Insert(r); err != nil {
						return nil, RunStats{}, err
					}
				}
			}
		}
		rowsOut += int64(len(res.Rows))
	}
	if err := db.Pool.Flush(); err != nil {
		return nil, RunStats{}, err
	}
	after := db.Pool.Stats()
	warmAfter := db.WarmIO()
	stats := RunStats{
		IO: storage.IOStats{
			Reads:  after.Reads - before.Reads,
			Writes: after.Writes - before.Writes,
			Hits:   after.Hits - before.Hits,
		},
		WarmIO: storage.IOStats{
			Reads:  warmAfter.Reads - warmBefore.Reads,
			Writes: warmAfter.Writes - warmBefore.Writes,
			Hits:   warmAfter.Hits - warmBefore.Hits,
		},
		Wall:    time.Since(start),
		RowsOut: rowsOut,
	}
	warmReadS := model.WarmReadS
	if warmReadS <= 0 {
		warmReadS = model.ReadS
	}
	stats.SimTime = float64(stats.IO.Reads)*model.ReadS + float64(stats.IO.Writes)*model.WriteS +
		float64(stats.IO.Reads+stats.IO.Writes)*model.CPUS +
		float64(stats.WarmIO.Reads)*warmReadS + float64(stats.WarmIO.Writes)*model.WriteS +
		float64(stats.WarmIO.Reads+stats.WarmIO.Writes)*model.CPUS
	if b.prof != nil {
		stats.Profile = &BatchProfile{Queries: b.prof.roots}
		if b.sched != nil {
			stats.Profile.Queries = nil
			for _, t := range b.sched.tasks {
				if t.mat {
					stats.Profile.Mats = append(stats.Profile.Mats, t.b.prof.roots...)
				} else {
					stats.Profile.Queries = append(stats.Profile.Queries, t.b.prof.roots...)
				}
			}
		}
		stats.Profile.sumPages()
	}
	recordRunMetrics(&stats)
	return results, stats, nil
}

// drainCheckEvery is how many rows are pulled between context checks;
// checking per row would put a (locking) ctx.Err call on the hot path.
const drainCheckEvery = 1024

// ctxPoll is the context check of a loop that pulls rows: drain's, those of
// the operators that pull a whole input before they deliver a row (a sort, a
// join's buffered sides, an aggregate's group), and those that drop rows (a
// filter, a scan's gates), inside which a cancelled run would otherwise keep
// working until the root saw its next row. The zero value never fails.
type ctxPoll struct {
	ctx  context.Context
	skip int // calls to let pass before the next check
}

// err is called once per row pulled (or dropped): it reports the context's
// error on the first call and on every drainCheckEvery-th after it.
func (p *ctxPoll) err() error {
	if p.skip > 0 {
		p.skip--
		return nil
	}
	p.skip = drainCheckEvery - 1
	if p.ctx == nil {
		return nil
	}
	return p.ctx.Err()
}

// drain exhausts an iterator, honouring context cancellation. The rows it
// returns are copies of its own, so they outlive the iterator: they are the
// run's answers, and their storage is never given back.
func drain(ctx context.Context, it Iterator) ([]storage.Row, error) {
	var arena rowArena
	return drainInto(ctx, it, &arena)
}

// drainInto is drain with the copies carved from arena and the slice of them
// taken from the pools, which a caller done with both can give back.
func drainInto(ctx context.Context, it Iterator, arena *rowArena) ([]storage.Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var rows []storage.Row
	if n := bufferedRows(it); n > 0 {
		arena.reserve(n, len(it.Schema()))
		rows = headers.get(n)
	}
	poll := ctxPoll{ctx: ctx}
	for {
		if err := poll.err(); err != nil {
			return nil, err
		}
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(headers.grow(rows, 1), arena.keep(r))
	}
}

// builder instantiates iterators for plan nodes. Temps (materialized
// intermediates) are the run's own.
type builder struct {
	ctx   context.Context
	db    *storage.DB
	temps *storage.RunTemps
	env   *Env
	prof  *profiler // nil unless Env.Profile
	sched *sched    // runs the tasks of a run of several and feeds their scans; nil in a run of one
}

// answer builds and drains a query root.
func (b *builder) answer(q *physical.PlanNode) (QueryResult, error) {
	it, err := b.build(q, true, nil)
	if err != nil {
		return QueryResult{}, err
	}
	rows, err := drain(b.ctx, it)
	return QueryResult{Schema: it.Schema(), Rows: rows}, err
}

// tempName is the temp-table name of a materialized plan node.
func tempName(pn *physical.PlanNode) string { return "mat_" + strconv.Itoa(pn.N.ID) }

// materialize computes a Mat plan node into its temp table (and temp index
// for index-property nodes), or — for nodes admitted to the result cache —
// into a spooled cache table that survives the run. A task starts once the
// temps it reads exist; one that needs a transient index temp another task
// is building waits for it. In a profiled run the pages the write takes are
// the materialization's own.
func (b *builder) materialize(pn *physical.PlanNode) error {
	src := pn
	ixCol := ""
	if pn.E.Kind == physical.IndexBuildEnf {
		ixCol = pn.E.IxCol().Name
		src = pn.Children[0]
	}
	spool, spooled := "", false
	if ixCol == "" { // index materializations are never cache-admitted
		spool, spooled = b.env.Cache.spoolName(pn.N)
	}
	key := tempName(pn)
	if spooled {
		key = "cache:" + spool
	}
	if err := b.sched.await(key); err != nil {
		return err
	}
	if spooled {
		if _, err := b.db.Cache(spool); err == nil {
			return nil // already spooled by this run
		}
	} else if _, err := b.temps.Temp(tempName(pn)); err == nil {
		return nil // already materialized
	}
	if b.sched != nil {
		b.sched.building[key] = true
		defer delete(b.sched.building, key)
	}
	it, err := b.build(src, false, nil)
	if err != nil {
		return err
	}
	var prof *NodeProfile
	if b.prof != nil {
		prof = b.prof.last
	}
	// The rows are the table's once written: their copies go back after.
	var arena rowArena
	defer arena.release()
	rows, err := drainInto(b.ctx, it, &arena)
	if err != nil {
		return err
	}
	defer headers.put(rows)
	if prof != nil {
		defer func(misses int64) { prof.Pages += b.db.Pool.Misses() - misses }(b.db.Pool.Misses())
	}
	var target *storage.Table
	if spooled {
		target = b.db.CreateCache(spool, it.Schema())
	} else {
		target = b.temps.CreateTemp(tempName(pn), it.Schema())
	}
	for _, r := range rows {
		if _, err := target.Heap.Insert(r); err != nil {
			return err
		}
	}
	if ixCol != "" {
		if _, err := b.db.EnsureIndex(target, ixCol); err != nil {
			return err
		}
	}
	return nil
}

// build returns an iterator for a plan node. When asConsumer is true and
// the node is materialized, the iterator reads the temp table instead of
// recomputing. With profiling on, each instantiation is wrapped with a
// statIter recording into a profile tree that mirrors the build recursion.
//
// need is the set of columns anything above reads from this node's rows. It
// travels down to the leaves — scans and index probes — which decode only
// those of their stored columns and deliver the narrowed schema; operators
// in between resolve columns by name, so they only pass the set on, adding
// what they read themselves.
func (b *builder) build(pn *physical.PlanNode, asConsumer bool, need colNeed) (Iterator, error) {
	if b.prof == nil {
		it, err := b.buildOp(pn, asConsumer, need)
		if err != nil {
			return nil, err
		}
		return b.env.wrapped(it), nil
	}
	p := &NodeProfile{Node: pn.N.ID, Op: opName(pn, asConsumer, b.env), Mat: pn.Mat,
		EstCost: float64(pn.Cost), EstRows: pn.N.LG.Rel.Rows}
	b.prof.push(p)
	it, err := b.buildOp(pn, asConsumer, need)
	b.prof.pop()
	b.prof.last = p
	if err != nil {
		return nil, err
	}
	if c, ok := it.(interface{ columns() (read, stored int) }); ok {
		p.Cols, p.StoredCols = c.columns()
	}
	return b.env.wrapped(newStatIter(it, p, b.prof)), nil
}

// buildOp instantiates the operator itself (children via build, so nested
// operators are individually profiled).
func (b *builder) buildOp(pn *physical.PlanNode, asConsumer bool, need colNeed) (Iterator, error) {
	if asConsumer && pn.Mat {
		if name, ok := b.env.Cache.spoolName(pn.N); ok && pn.E.Kind != physical.IndexBuildEnf {
			ct, err := b.db.Cache(name)
			if err != nil {
				return nil, fmt.Errorf("exec: spooled node %d not yet computed: %w", pn.N.ID, err)
			}
			return b.scan(ct.Heap, ct.Schema, need), nil
		}
		temp, err := b.temps.Temp(tempName(pn))
		if err != nil {
			return nil, fmt.Errorf("exec: materialized node %d not yet computed: %w", pn.N.ID, err)
		}
		return b.scan(temp.Heap, temp.Schema, need), nil
	}
	switch pn.E.Kind {
	case physical.CacheScanOp:
		if pn.E.Arm.CacheTier == cost.TierWarm {
			wt, err := b.db.Warm(pn.E.Arm.CacheName)
			if err != nil {
				// The entry may have been promoted to RAM between arming and
				// execution (async promotion completed mid-batch): fall
				// through to the RAM namespace before failing.
				if ct, rerr := b.db.Cache(pn.E.Arm.CacheName); rerr == nil {
					return b.scan(ct.Heap, ct.Schema, need), nil
				}
				return nil, fmt.Errorf("exec: armed warm table for node %d missing: %w", pn.N.ID, err)
			}
			return b.scan(wt.Heap, wt.Schema, need), nil
		}
		ct, err := b.db.Cache(pn.E.Arm.CacheName)
		if err != nil {
			return nil, fmt.Errorf("exec: armed cache table for node %d missing: %w", pn.N.ID, err)
		}
		return b.scan(ct.Heap, ct.Schema, need), nil

	case physical.SeqScan:
		op := pn.E.LE.Op.(algebra.Scan)
		tab, err := b.db.Table(op.Table)
		if err != nil {
			return nil, err
		}
		return b.scan(tab.Heap, requalify(tab.Schema, op.Alias), need), nil

	case physical.Filter:
		op := pn.E.LE.Op.(algebra.Select)
		child, err := b.build(pn.Children[0], true, need.plus(op.Pred.VisitColumns))
		if err != nil {
			return nil, err
		}
		f, err := newFilter(child, op.Pred, b.env)
		if err != nil {
			return nil, err
		}
		f.poll.ctx = b.ctx
		return f, nil

	case physical.IndexSelect:
		op := pn.E.LE.Op.(algebra.Select)
		src, err := b.resolveIndexedSource(pn.Children[0], pn.E.IxCol(), need.plus(op.Pred.VisitColumns))
		if err != nil {
			return nil, err
		}
		col, cop, rhs, ok := singleColPred(op.Pred)
		if !ok || col != pn.E.IxCol() {
			return nil, fmt.Errorf("exec: index select predicate mismatch: %v", op.Pred)
		}
		rhsFn, err := compileScalar(rhs, nil, b.env)
		if err != nil {
			return nil, err
		}
		full, err := compilePred(op.Pred, src.schema, b.env)
		if err != nil {
			return nil, err
		}
		return &indexSelect{source: src, op: cop, rhs: rhsFn, pred: full, schema: src.schema}, nil

	case physical.BNLJoin:
		return b.buildNLJoin(pn, need)

	case physical.MergeJoin:
		return b.buildMergeJoin(pn, need)

	case physical.IndexJoin:
		return b.buildIndexJoin(pn, need)

	case physical.SortAgg, physical.ScalarAgg:
		// An aggregate's output is its own, so what its parent reads says
		// nothing about its input: the set starts over from the grouping
		// (and sort) keys and the aggregate arguments.
		op := pn.E.LE.Op.(algebra.Aggregate)
		reads := colNeed{}.plus(eachOf(op.GroupBy), eachOf(pn.E.SortCols))
		for _, a := range op.Aggs {
			if a.Arg != nil {
				a.Arg.VisitColumns(reads.add)
			}
		}
		child, err := b.build(pn.Children[0], true, reads)
		if err != nil {
			return nil, err
		}
		if pn.E.Kind == physical.SortAgg && !sortedOn(pn.Children[0], pn.E.SortCols) {
			if child, err = b.sort(child, pn.E.SortCols, reads); err != nil {
				return nil, err
			}
		}
		gb := op.GroupBy
		if pn.E.Kind == physical.SortAgg {
			gb = pn.E.SortCols // canonical order used for sorting
		}
		schema := make(algebra.Schema, 0, len(gb)+len(op.Aggs))
		cs := child.Schema()
		for _, c := range gb {
			i := cs.IndexOf(c)
			if i < 0 {
				return nil, fmt.Errorf("exec: group-by column %v missing", c)
			}
			schema = append(schema, cs[i])
		}
		for _, a := range op.Aggs {
			t := algebra.TFloat
			if a.Func == algebra.CountAll {
				t = algebra.TInt
			}
			schema = append(schema, algebra.ColInfo{Col: a.As, Typ: t})
		}
		a, err := newSortAgg(child, gb, op.Aggs, schema)
		if err != nil {
			return nil, err
		}
		a.poll.ctx = b.ctx
		return a, nil

	case physical.ProjectOp:
		op := pn.E.LE.Op.(algebra.Project)
		reads := colNeed{}
		for _, ne := range op.Exprs {
			ne.Expr.VisitColumns(reads.add)
		}
		child, err := b.build(pn.Children[0], true, reads)
		if err != nil {
			return nil, err
		}
		funcs := make([]valueFunc, len(op.Exprs))
		schema := make(algebra.Schema, len(op.Exprs))
		for i, ne := range op.Exprs {
			f, err := compileScalar(ne.Expr, child.Schema(), b.env)
			if err != nil {
				return nil, err
			}
			funcs[i] = f
			schema[i] = algebra.ColInfo{Col: ne.As, Typ: ne.Typ}
		}
		return &projectIter{child: child, funcs: funcs, schema: schema}, nil

	case physical.SortEnf:
		need = need.plus(eachOf(pn.E.SortCols))
		child, err := b.build(pn.Children[0], true, need)
		if err != nil {
			return nil, err
		}
		return b.newSort(child, pn.E.SortCols, need)

	case physical.IndexBuildEnf:
		// Consumed as plain data (an Any-requirement parent reusing the
		// indexed materialization): read through to the data.
		return b.build(pn.Children[0], true, need)

	case physical.InvokeOp, physical.InvokePartial:
		// The Invoke rebinds the parameters the task's operators read from
		// here on, which are the task's own: other tasks run meanwhile.
		env := *b.env
		env.Params = maps.Clone(b.env.Params)
		b.env = &env
		// The body's rows are teed to, and interleaved with scans of,
		// per-binding cache tables, which hold whole rows.
		child, err := b.build(pn.Children[0], true, nil)
		if err != nil {
			return nil, err
		}
		iv := &invokeIter{child: child, env: b.env, db: b.db, ctx: b.ctx, sched: b.sched,
			spools: b.env.Cache.bindSpools(pn.N)}
		if pn.E.Kind == physical.InvokePartial {
			iv.scans = make(map[string]physical.BindScan, len(pn.E.Arm.BindScans))
			for _, bs := range pn.E.Arm.BindScans {
				iv.scans[bs.Bind] = bs
			}
		}
		return iv, nil

	case physical.BaseIndex:
		// Base index access consumed as plain data: scan the table.
		op := pn.E.LE.Op.(algebra.Scan)
		tab, err := b.db.Table(op.Table)
		if err != nil {
			return nil, err
		}
		return b.scan(tab.Heap, requalify(tab.Schema, op.Alias), need), nil
	}
	return nil, fmt.Errorf("exec: cannot instantiate %v", pn.E.Kind)
}

// joinInputs builds a join's two inputs. Both are asked for what the parent
// reads plus the join's predicate and key columns, the set it returns; each
// side's leaves keep the ones they store.
func (b *builder) joinInputs(pn *physical.PlanNode, need colNeed) (left, right Iterator, _ colNeed, err error) {
	need = need.plus(pn.E.LE.Op.(algebra.Join).Pred.VisitColumns, eachOf(pn.E.SortCols), eachOf(pn.E.RightCols))
	if left, err = b.build(pn.Children[0], true, need); err != nil {
		return nil, nil, nil, err
	}
	right, err = b.build(pn.Children[1], true, need)
	return left, right, need, err
}

// scan returns a scan of a stored relation in the run (newScan).
func (b *builder) scan(heap *storage.HeapFile, stored algebra.Schema, need colNeed) *tableScan {
	return newScan(b.ctx, b.sched, heap, stored, need)
}

// newScan returns a scan of a stored relation fed by the run's shared passes
// when it has tasks (sched), which check the run's context before every page
// they read; a scan that reads alone polls the context once per
// drainCheckEvery rows its gates drop.
func newScan(ctx context.Context, sched *sched, heap *storage.HeapFile, stored algebra.Schema, need colNeed) *tableScan {
	s := newTableScan(heap, stored, need)
	if sched != nil {
		s.cur.SetFeed(sched.feed)
	} else {
		s.poll.ctx = ctx
	}
	return s
}

// newSort returns a sort of child on cols that copies the columns in need
// and stops when the run is cancelled.
func (b *builder) newSort(child Iterator, cols []algebra.Column, need colNeed) (*sortIter, error) {
	s, err := newSort(child, cols, need)
	if err != nil {
		return nil, err
	}
	s.poll.ctx = b.ctx
	return s, nil
}

// sort is newSort's sort as its consumer sees it.
func (b *builder) sort(child Iterator, cols []algebra.Column, need colNeed) (Iterator, error) {
	s, err := b.newSort(child, cols, need)
	if err != nil {
		return nil, err
	}
	return b.env.wrapped(s), nil
}

// buildNLJoin hands the join the plan's cardinalities of its two inputs, by
// which it decides the one to hold.
func (b *builder) buildNLJoin(pn *physical.PlanNode, need colNeed) (Iterator, error) {
	left, right, _, err := b.joinInputs(pn, need)
	if err != nil {
		return nil, err
	}
	j, err := newNLJoin(left, right, pn.E.LE.Op.(algebra.Join).Pred, b.env)
	if err != nil {
		return nil, err
	}
	j.poll.ctx = b.ctx
	j.estimate(pn.Children[0].N.LG.Rel.Rows, pn.Children[1].N.LG.Rel.Rows)
	return j, nil
}

func (b *builder) buildMergeJoin(pn *physical.PlanNode, need colNeed) (Iterator, error) {
	left, right, need, err := b.joinInputs(pn, need)
	if err != nil {
		return nil, err
	}
	// Inputs must arrive sorted on the join keys; when a link was replaced
	// by a differently-sorted materialization, re-sort explicitly.
	if !sortedOn(pn.Children[0], pn.E.SortCols) {
		if left, err = b.sort(left, pn.E.SortCols, need); err != nil {
			return nil, err
		}
	}
	if !sortedOn(pn.Children[1], pn.E.RightCols) {
		if right, err = b.sort(right, pn.E.RightCols, need); err != nil {
			return nil, err
		}
	}
	op := pn.E.LE.Op.(algebra.Join)
	schema := left.Schema().Concat(right.Schema())
	pred, err := compilePred(op.Pred, schema, b.env)
	if err != nil {
		return nil, err
	}
	mj := &mergeJoin{left: left, right: right, pred: pred, schema: schema}
	for _, c := range pn.E.SortCols {
		mj.lIdx = append(mj.lIdx, left.Schema().IndexOf(c))
	}
	for _, c := range pn.E.RightCols {
		mj.rIdx = append(mj.rIdx, right.Schema().IndexOf(c))
	}
	for _, ix := range append(append([]int(nil), mj.lIdx...), mj.rIdx...) {
		if ix < 0 {
			return nil, fmt.Errorf("exec: merge key missing from input schema")
		}
	}
	return mj, nil
}

func (b *builder) buildIndexJoin(pn *physical.PlanNode, need colNeed) (Iterator, error) {
	op := pn.E.LE.Op.(algebra.Join)
	need = need.plus(op.Pred.VisitColumns, eachOf(pn.E.SortCols))
	outer, err := b.build(pn.Children[0], true, need)
	if err != nil {
		return nil, err
	}
	src, err := b.resolveIndexedSource(pn.Children[1], pn.E.IxCol(), need)
	if err != nil {
		return nil, err
	}
	schema := outer.Schema().Concat(src.schema)
	pred, err := compilePred(op.Pred, schema, b.env)
	if err != nil {
		return nil, err
	}
	keyFn, err := compileScalar(algebra.ColExpr{C: pn.E.SortCols[0]}, outer.Schema(), b.env)
	if err != nil {
		return nil, err
	}
	return &indexJoin{outer: outer, inner: src, keyFn: keyFn, pred: pred, schema: schema}, nil
}

// resolveIndexedSource turns an index-property plan node into a probe-able
// source: a base table with a stored index, or a (possibly just-built)
// temp table with a temp index. Probes fetch the stored columns in need.
func (b *builder) resolveIndexedSource(pn *physical.PlanNode, col algebra.Column, need colNeed) (*indexedSource, error) {
	switch pn.E.Kind {
	case physical.BaseIndex:
		op := pn.E.LE.Op.(algebra.Scan)
		tab, err := b.db.Table(op.Table)
		if err != nil {
			return nil, err
		}
		// Build the stored index lazily on first use: catalog indexes are
		// metadata; the storage side materializes them on demand, exactly
		// once even when concurrent runs race on a shared base table. The
		// pages a build reads are the first probing operator's.
		before := b.db.Pool.Misses()
		idx, err := b.db.EnsureIndex(tab, col.Name)
		if err != nil {
			return nil, err
		}
		src := newIndexedSource(tab.Heap, b.db.Pool, idx, requalify(tab.Schema, op.Alias), need)
		src.misses = b.db.Pool.Misses() - before
		return src, nil

	case physical.IndexBuildEnf:
		name := tempName(pn)
		temp, err := b.temps.Temp(name)
		if err != nil {
			// Transient index join inner: build temp + index now.
			if err := b.materialize(pn); err != nil {
				return nil, err
			}
			temp, err = b.temps.Temp(name)
			if err != nil {
				return nil, err
			}
		}
		idx, err := b.db.EnsureIndex(temp, col.Name)
		if err != nil {
			return nil, err
		}
		return newIndexedSource(temp.Heap, b.db.Pool, idx, temp.Schema, need), nil
	}
	return nil, fmt.Errorf("exec: node %d (%v) is not an indexed source", pn.N.ID, pn.E.Kind)
}

// invokeIter runs its child once per parameter binding, concatenating the
// outputs in ParamSets order (correlated evaluation of a nested query,
// §5). With the binding cache armed (InvokePartial) some bindings are
// served by scanning their spooled per-binding cache tables instead of
// recomputing — the streams interleave in the same ParamSets order, so the
// output is byte-identical to a full recompute. Residual bindings with a
// spool assignment are teed into fresh cache tables as they stream.
type invokeIter struct {
	child Iterator
	env   *Env
	db    *storage.DB
	ctx   context.Context // what its cache scans poll, or
	sched *sched          // the tasks that feed them

	// scans maps binding keys to cached-binding tables (InvokePartial
	// only); spools maps binding keys to the tables this run must write.
	scans  map[string]physical.BindScan
	spools map[string]string

	sets    []map[string]algebra.Value
	keys    []string // BindingKey per set, in order
	setIdx  int
	cur     Iterator   // current binding's source: the child or a cache scan
	scan    *tableScan // that cache scan, nil while the child runs
	started bool
	spoolTo string        // table the current binding spools into ("" = none)
	arena   rowArena      // the copies of the current binding's teed rows
	buf     []storage.Row // current binding's teed rows
	misses  int64         // pool misses of finished cache scans and spool writes
}

func (iv *invokeIter) Open() error {
	iv.sets = iv.env.ParamSets
	if len(iv.sets) == 0 {
		iv.sets = []map[string]algebra.Value{{}}
	}
	iv.keys = make([]string, len(iv.sets))
	for i, ps := range iv.sets {
		iv.keys[i] = algebra.BindingKey(ps)
	}
	iv.setIdx = 0
	iv.started = false
	return nil
}

// openBinding positions the iterator on binding setIdx: a cached binding
// scans its table (tier-routed like CacheScanOp), a residual one binds the
// parameters and opens the child, arming the spool sink when this run owes
// the binding's table and no earlier occurrence already wrote it.
func (iv *invokeIter) openBinding() error {
	bind := iv.keys[iv.setIdx]
	if ref, ok := iv.scans[bind]; ok && iv.db != nil {
		scan, err := iv.cacheScan(ref)
		if err != nil {
			return err
		}
		it := iv.env.wrapped(scan)
		if err := it.Open(); err != nil {
			return err
		}
		iv.cur, iv.scan = it, scan
		iv.started = true
		return nil
	}
	for k, v := range iv.sets[iv.setIdx] {
		iv.env.Params[k] = v
	}
	if err := iv.child.Open(); err != nil {
		return err
	}
	iv.cur = iv.child
	if table, ok := iv.spools[bind]; ok && iv.db != nil {
		if _, err := iv.db.Cache(table); err != nil { // not yet written
			iv.spoolTo = table
			iv.arena.reset()
			iv.buf = iv.buf[:0]
		}
	}
	iv.started = true
	return nil
}

// cacheScan opens the table scan serving one cached binding, preferring
// the tier the plan was priced at and falling back from warm to RAM when
// an async promotion completed mid-batch (mirroring CacheScanOp).
func (iv *invokeIter) cacheScan(ref physical.BindScan) (*tableScan, error) {
	if ref.Tier == cost.TierWarm {
		if wt, err := iv.db.Warm(ref.Table); err == nil {
			return newScan(iv.ctx, iv.sched, wt.Heap, wt.Schema, nil), nil
		}
	}
	ct, err := iv.db.Cache(ref.Table)
	if err != nil {
		return nil, fmt.Errorf("exec: armed binding table %s missing: %w", ref.Table, err)
	}
	return newScan(iv.ctx, iv.sched, ct.Heap, ct.Schema, nil), nil
}

// closeBinding finishes the current binding: a fully drained spooled
// binding's rows become its cache table (the single-flight claim was
// already placed; partially drained bindings never write).
func (iv *invokeIter) closeBinding(drained bool) error {
	if iv.spoolTo != "" {
		if drained {
			before := iv.db.Pool.Misses() // a new page counts as one
			ct := iv.db.CreateCache(iv.spoolTo, iv.child.Schema())
			for _, r := range iv.buf {
				if _, err := ct.Heap.Insert(r); err != nil {
					return err
				}
			}
			iv.misses += iv.db.Pool.Misses() - before
		}
		iv.spoolTo = ""
	}
	if iv.scan != nil {
		iv.misses += iv.scan.pageMisses()
		iv.scan = nil
	}
	err := iv.cur.Close()
	iv.cur = nil
	iv.started = false
	return err
}

func (iv *invokeIter) Next() (storage.Row, bool, error) {
	for iv.setIdx < len(iv.sets) {
		if !iv.started {
			if err := iv.openBinding(); err != nil {
				return nil, false, err
			}
		}
		r, ok, err := iv.cur.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			if iv.spoolTo != "" {
				iv.buf = append(iv.buf, iv.arena.keep(r))
			}
			return r, true, nil
		}
		if err := iv.closeBinding(true); err != nil {
			return nil, false, err
		}
		iv.setIdx++
	}
	return nil, false, nil
}

// Close gives the teed rows' copies back to the pools.
func (iv *invokeIter) Close() error {
	var err error
	if iv.started {
		err = iv.closeBinding(false)
	}
	iv.arena.release()
	iv.buf = iv.buf[:0]
	return err
}

func (iv *invokeIter) Schema() algebra.Schema { return iv.child.Schema() }

// pageMisses reports those of the cache scans and spool writes.
func (iv *invokeIter) pageMisses() int64 { return iv.misses }

// colNeed is a set of columns a consumer reads; nil is the set of all
// columns, whatever the schema they turn out to come from.
type colNeed map[algebra.Column]struct{}

// eachOf visits the columns of a list, in the shape of the algebra's
// VisitColumns methods.
func eachOf(cols []algebra.Column) func(func(algebra.Column)) {
	return func(f func(algebra.Column)) {
		for _, c := range cols {
			f(c)
		}
	}
}

// add puts one column into the set; it has the shape VisitColumns calls.
func (n colNeed) add(c algebra.Column) { n[c] = struct{}{} }

// plus returns the set with the visited columns added. The receiver is left
// alone, as sibling subtrees share it.
func (n colNeed) plus(visits ...func(func(algebra.Column))) colNeed {
	if n == nil {
		return nil
	}
	out := maps.Clone(n)
	for _, visit := range visits {
		visit(out.add)
	}
	return out
}

// kept is what a leaf reads of a stored relation: the positions cols of a
// stored row, ascending, and the schema a read of just those delivers.
type kept struct {
	schema algebra.Schema
	cols   []int
	stored int // columns the relation holds
}

// columns is what a profiled run reports as NodeProfile.Cols/StoredCols.
func (k kept) columns() (read, stored int) { return len(k.cols), k.stored }

// of picks the set's columns out of a stored schema.
func (n colNeed) of(stored algebra.Schema) kept {
	k := kept{schema: stored, cols: make([]int, 0, len(stored)), stored: len(stored)}
	for i, ci := range stored {
		if _, ok := n[ci.Col]; ok || n == nil {
			k.cols = append(k.cols, i)
		}
	}
	if len(k.cols) < len(stored) {
		k.schema = make(algebra.Schema, len(k.cols))
		for j, i := range k.cols {
			k.schema[j] = stored[i]
		}
	}
	return k
}

// requalify rewrites a stored schema's relation qualifiers to an alias.
func requalify(s algebra.Schema, alias string) algebra.Schema {
	out := make(algebra.Schema, len(s))
	for i, ci := range s {
		out[i] = algebra.ColInfo{Col: algebra.Col(alias, ci.Col.Name), Typ: ci.Typ}
	}
	return out
}

// sortedOn reports whether the plan node's delivered property guarantees
// the given sort order.
func sortedOn(pn *physical.PlanNode, cols []algebra.Column) bool {
	return pn.N.Prop.Satisfies(physical.SortProp(cols...)) ||
		deliveredSort(pn).Satisfies(physical.SortProp(cols...))
}

// deliveredSort infers the sort order an operator actually delivers.
func deliveredSort(pn *physical.PlanNode) physical.Prop {
	switch pn.E.Kind {
	case physical.SortEnf:
		return physical.SortProp(pn.E.SortCols...)
	case physical.MergeJoin:
		return physical.SortProp(pn.E.SortCols...)
	case physical.SortAgg:
		return physical.SortProp(pn.E.SortCols...)
	}
	return pn.N.Prop
}

// singleColPred matches col op (const|param) predicates.
func singleColPred(p algebra.Predicate) (algebra.Column, algebra.CmpOp, algebra.Scalar, bool) {
	if len(p.Conj) != 1 || len(p.Conj[0].Disj) != 1 {
		return algebra.Column{}, 0, nil, false
	}
	c := p.Conj[0].Disj[0]
	if l, ok := c.L.(algebra.ColExpr); ok {
		switch c.R.(type) {
		case algebra.ConstExpr, algebra.ParamExpr:
			return l.C, c.Op, c.R, true
		}
	}
	if r, ok := c.R.(algebra.ColExpr); ok {
		switch c.L.(type) {
		case algebra.ConstExpr, algebra.ParamExpr:
			return r.C, c.Op.Flip(), c.L, true
		}
	}
	return algebra.Column{}, 0, nil, false
}
