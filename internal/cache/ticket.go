package cache

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/physical"
	"mqo/internal/storage"
)

// Ticket is one batch's handle on the store: the entries its plan may read
// (pinned) and the admissions it owes rows for (pending, pinned); what a read
// saved is on the plan (physical.CacheArm.Saving). Exactly one of Commit and
// Abort must be called. A nil *Ticket — a session without a result cache —
// is valid: it admits nothing and its Commit and Abort do nothing.
type Ticket struct {
	// m is the store; nil once Commit or Abort settled the ticket.
	m *Manager
	// pd is the batch DAG (Arm tickets only): PlanSpools values candidates
	// at the costs the search left on it.
	pd *physical.DAG
	// fps are the batch DAG's canonical fingerprints (Arm tickets only).
	fps map[*dag.Group]string
	// binds are the batch's binding keys (algebra.BindingKey per ParamSet,
	// in ParamSets order; Arm tickets only).
	binds []string
	// armed are the ready entries the batch's plan may read, each pinned
	// once.
	armed map[*Entry]bool
	// pending are the entries this batch admitted.
	pending []*Entry
	// bindSpools maps Invoke plan nodes to binding→table spool assignments
	// (see BindingSpools).
	bindSpools map[*physical.Node]map[string]string
	// plan is the executed plan, recorded by PlanSpools / PinPlan; Commit
	// walks it to see which armed tables were actually read.
	plan *physical.Plan
}

// Arm is the result cache's pre-pass over a freshly built batch DAG, run
// before the search so every algorithm prices hits natively. Per physical
// node (query root and index-property nodes excepted):
//
//   - A parameter-free node whose fingerprint has a ready empty-binding
//     entry with a satisfying property gains a CacheScan access path priced
//     at the stored bytes' scan cost in the entry's tier — an
//     already-materialized result with zero setup cost.
//   - Each Invoke expression whose body has ready entries for some of the
//     batch's bindings gains an InvokePartial alternative: cached bindings
//     become tier-priced table scans (one spooled table each), residual
//     bindings keep paying the body's per-invocation cost at the residual
//     fraction of the Invoke weight (cost.ResidualInvokeWeight).
//
// paramSets are the batch's parameter bindings (exec.Env.ParamSets order;
// nil for an unparameterized batch). Every armed entry is pinned until
// Commit/Abort so eviction can never snatch a table from under the plan;
// Commit reinforces the ones the executed plan read. Arm returns a ticket
// even when nothing matched (the batch may still admit); only a nil store
// yields a nil ticket.
func (m *Manager) Arm(pd *physical.DAG, paramSets []map[string]algebra.Value) *Ticket {
	if m == nil {
		return nil
	}
	t := &Ticket{m: m, pd: pd, fps: dag.CanonicalFingerprints(pd.L), armed: map[*Entry]bool{}}
	for _, ps := range paramSets {
		t.binds = append(t.binds, algebra.BindingKey(ps))
	}
	m.clock.Add(1)
	for _, n := range pd.Nodes {
		if n == pd.Root || n.Prop.HasIx {
			continue
		}
		// One table cannot stand for all bindings of a parameter-dependent
		// node; those are served per binding through their Invoke.
		if !n.LG.ParamDep {
			t.armScan(pd, n)
		}
		if len(t.binds) == 0 {
			continue
		}
		for _, e := range n.Exprs {
			if e.Kind == physical.InvokeOp {
				t.armInvoke(pd, n, e)
			}
		}
	}
	return t
}

// armScan arms the cheapest ready empty-binding entry whose stored property
// satisfies the node's (table name breaks ties, so the choice never depends
// on map order).
func (t *Ticket) armScan(pd *physical.DAG, n *physical.Node) {
	m := t.m
	fp := t.fps[n.LG.Find()]
	m.mu.Lock()
	defer m.mu.Unlock()
	var best *Entry
	var bestCost cost.Cost
	for id, e := range m.index[fp] {
		if !e.ready || id.bind != "" || !e.Prop.Satisfies(n.Prop) {
			continue
		}
		// Per-tier pricing: a warm entry's read-back is charged at the warm
		// per-page constant, so the algorithms can still prefer
		// recomputation when disk read-back is the worse deal.
		sc := m.tierScanCost(e.Tier, e.Bytes)
		if best == nil || sc < bestCost || sc == bestCost && e.Table < best.Table {
			best, bestCost = e, sc
		}
	}
	if best == nil {
		return
	}
	pd.ArmCacheScan(n, best.Table, bestCost, best.Tier)
	t.pin(best)
}

// armInvoke classifies the batch's bindings against the body's entries —
// one index probe per binding — and arms an InvokePartial alternative when
// any binding is ready.
func (t *Ticket) armInvoke(pd *physical.DAG, n *physical.Node, inv *physical.PExpr) {
	m := t.m
	body := inv.Children[0]
	fp, prop := t.fps[body.LG.Find()], body.Prop.Key()
	m.mu.Lock()
	defer m.mu.Unlock()
	var scans []physical.BindScan
	var tiers []cost.Tier
	var blocks []float64
	var residual []string
	var cached []*Entry
	for _, bind := range t.binds {
		e := m.index[fp][entryID{prop, bind}]
		if e == nil || !e.ready {
			residual = append(residual, bind)
			continue
		}
		// Per-use saving: one body invocation replaced by one tier-priced
		// table read-back.
		saving := float64(pd.CostOf(body)) - float64(m.tierScanCost(e.Tier, e.Bytes))
		scans = append(scans, physical.BindScan{Bind: bind, Table: e.Table, Tier: e.Tier, Saving: saving})
		tiers = append(tiers, e.Tier)
		blocks = append(blocks, float64(e.Bytes)/float64(m.Model.BlockSize))
		cached = append(cached, e)
	}
	if len(scans) == 0 {
		return
	}
	scanCost := m.Model.BindingReadbackCost(tiers, blocks)
	weight := cost.ResidualInvokeWeight(inv.Weight(), len(residual), len(t.binds))
	pd.ArmInvokePartial(n, inv.LE, body, weight, scanCost, scans, residual, fp)
	for _, e := range cached {
		t.pin(e)
	}
}

// pin records that the batch's plan may read e, with mu held: the first
// sighting takes the pin.
func (t *Ticket) pin(e *Entry) {
	if !t.armed[e] {
		t.armed[e] = true
		e.pins++
	}
}

// tierScanCost prices reading back a spooled result of the given size from
// the given tier.
func (m *Manager) tierScanCost(t cost.Tier, bytes int64) cost.Cost {
	blocks := float64(bytes) / float64(m.Model.BlockSize)
	if blocks < 1 {
		blocks = 1
	}
	return m.Model.TierScanCost(t, blocks)
}

// Admission bounds per batch, so a single large batch cannot churn the whole
// store. Bindings are small (often one aggregate row each) but arrive in
// set-sized groups, so their bound is the wider one. The binding bound is a
// variable only so BenchmarkBindingReplay can set it to 0, which turns
// per-binding caching off; nothing else changes it.
const maxAdmitPerBatch = 4

var maxBindAdmitPerBatch = 64

// candidate is one result a batch offers for admission: the rows plan node
// n produces for the expression (fp, prop), under one binding or — id.bind
// empty — as a whole.
type candidate struct {
	n     *physical.Node
	fp    string
	prop  physical.Prop
	id    entryID
	bytes int64   // estimated size
	value float64 // estimated saving per future use
	topo  int     // deterministic tie-break
	e     *Entry  // the pending entry, once claimed
}

// PlanSpools decides which of the optimized batch's results to admit and
// returns the node→cache-table spool map for the executor (per-binding
// assignments are reported by BindingSpools). Whole-expression candidates
// are offered first, then binding candidates: admission order fixes the
// global rc<seq> table names that appear in plans.
func (t *Ticket) PlanSpools(plan *physical.Plan) map[*physical.Node]string {
	if t == nil {
		return nil
	}
	t.plan = plan
	spools := map[*physical.Node]string{}
	for _, c := range t.admit(t.wholeCandidates(plan), maxAdmitPerBatch) {
		spools[c.n] = c.e.Table
	}
	for _, c := range t.admit(t.bindingCandidates(plan), maxBindAdmitPerBatch) {
		if t.bindSpools == nil {
			t.bindSpools = map[*physical.Node]map[string]string{}
		}
		if t.bindSpools[c.n] == nil {
			t.bindSpools[c.n] = map[string]string{}
		}
		t.bindSpools[c.n][c.id.bind] = c.e.Table
	}
	return spools
}

// BindingSpools returns the per-binding spool assignments PlanSpools made:
// for each Invoke plan node, the binding-key → cache-table map the
// executor must tee those bindings' rows into. Nil when nothing was
// admitted at binding granularity.
func (t *Ticket) BindingSpools() map[*physical.Node]map[string]string {
	if t == nil {
		return nil
	}
	return t.bindSpools
}

// wholeCandidates collects the plan's parameter-free results worth keeping:
// its materialized intermediates (whose cache write replaces the temp write
// they were paying anyway) and the query roots (charged the extra write).
func (t *Ticket) wholeCandidates(plan *physical.Plan) []candidate {
	m := t.m
	var cands []candidate
	consider := func(pn *physical.PlanNode, extraWrite bool) {
		n := pn.N
		switch {
		case n.LG.ParamDep, n.Prop.HasIx, pn.E.Kind == physical.IndexBuildEnf,
			pn.E.Kind == physical.CacheScanOp, pn.E.Kind == physical.Batch,
			isBaseScanGroup(n.LG), len(n.LG.Schema) == 0:
			return
		}
		// Value: what a future use saves — recomputation minus read-back —
		// discounted by the extra write a root spool pays now (a Mat node's
		// write replaces its temp write, already paid for by the plan).
		value := float64(t.pd.CostOf(n) - n.ReuseSeq)
		if extraWrite {
			value -= float64(n.MatCost)
		}
		cands = append(cands, candidate{n: n, fp: t.fps[n.LG.Find()], prop: n.Prop, id: entryID{prop: n.Prop.Key()},
			bytes: int64(n.LG.Rel.Blocks(m.Model)) * m.Model.BlockSize, value: value, topo: n.Topo})
	}
	for _, pn := range plan.Mats {
		consider(pn, false)
	}
	for _, pn := range plan.QueryRoots() {
		if !pn.Mat {
			consider(pn, true)
		}
	}
	return cands
}

// bindingCandidates collects the bindings the plan's Invoke nodes will
// compute: every batch binding under a plain Invoke, the residual ones under
// an InvokePartial.
func (t *Ticket) bindingCandidates(plan *physical.Plan) []candidate {
	if len(t.binds) == 0 {
		return nil
	}
	m := t.m
	var cands []candidate
	plan.Root.Walk(func(pn *physical.PlanNode) {
		if pn.E.Kind != physical.InvokeOp && pn.E.Kind != physical.InvokePartial {
			return
		}
		body := pn.E.Children[0]
		if len(body.LG.Schema) == 0 {
			return
		}
		residual := t.binds
		if pn.E.Kind == physical.InvokePartial {
			residual = pn.E.Arm.ResidualBinds
		}
		// The optimizer's body cardinality is a per-invocation estimate, so
		// it prices one binding's rows; a future hit saves one body
		// invocation minus the read-back and the spool write paid now.
		c := candidate{n: pn.N, fp: t.fps[body.LG.Find()], prop: body.Prop, id: entryID{prop: body.Prop.Key()},
			bytes: int64(body.LG.Rel.Blocks(m.Model)) * m.Model.BlockSize,
			value: float64(t.pd.CostOf(body) - body.ReuseSeq - body.MatCost), topo: body.Topo}
		for _, bind := range residual {
			c.id.bind = bind
			cands = append(cands, c)
		}
	})
	return cands
}

// admit offers candidates to the store, best value density first
// (topological number, then binding key, break ties deterministically), and
// returns the ones it claimed, at most limit. A claimed candidate's entry
// is pending and pinned until the ticket commits or aborts.
func (t *Ticket) admit(cands []candidate, limit int) []candidate {
	type identity struct {
		fp string
		id entryID
	}
	offered := map[identity]bool{}
	worth := cands[:0]
	for _, c := range cands {
		if id := (identity{c.fp, c.id}); c.bytes > 0 && c.value > 0 && !offered[id] {
			offered[id] = true
			worth = append(worth, c)
		}
	}
	sort.Slice(worth, func(i, j int) bool {
		di, dj := worth[i].value/float64(worth[i].bytes), worth[j].value/float64(worth[j].bytes)
		if di != dj {
			return di > dj
		}
		if worth[i].topo != worth[j].topo {
			return worth[i].topo < worth[j].topo
		}
		return worth[i].id.bind < worth[j].id.bind
	})
	var claimed []candidate
	for _, c := range worth {
		if len(claimed) == limit {
			break
		}
		if c.e = t.m.claim(c); c.e != nil {
			t.pending = append(t.pending, c.e)
			claimed = append(claimed, c)
		}
	}
	return claimed
}

// claim admits one candidate if its identity is free and the store can make
// room for it by evicting only strictly less value-dense entries. The new
// entry enters the index pending and pinned at once — the single-flight
// claim that stops a concurrent batch from spooling the same result.
func (m *Manager) claim(c candidate) *Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.index[c.fp][c.id] != nil {
		return nil // ready, or claimed by a concurrent batch
	}
	if !m.makeRoomLocked(cost.TierRAM, c.bytes, c.value/float64(c.bytes)) {
		return nil
	}
	e := &Entry{
		Key:        c.fp,
		Prop:       c.prop,
		Bind:       c.id.bind,
		Table:      "rc" + strconv.FormatInt(m.tableSeq.Add(1), 10),
		Bytes:      c.bytes,
		Value:      c.value,
		LastUsed:   m.clock.Load(),
		id:         c.id,
		admitValue: c.value,
		pins:       1,
	}
	m.insertLocked(e)
	m.publishLocked()
	return e
}

// PinPlan builds a ticket for an already-optimized plan (a session
// plan-cache hit): every cache table the plan reads — CacheScan tables and
// the binding tables of InvokePartial nodes — is pinned. It reports
// ok=false — and pins nothing — when any referenced entry is gone, not
// ready, or no longer in the tier the plan was priced against (a demotion
// or promotion moved it since), in which case the caller must discard the
// plan and optimize fresh. It also revalidates binding-set membership: a
// residual binding of an InvokePartial node that has become ready since
// the plan was optimized means the plan undershoots the available hit, so
// the plan is rejected and the caller re-optimizes against the fuller
// entry set. A nil store has nothing to pin: any plan is good, under a nil
// ticket.
func (m *Manager) PinPlan(plan *physical.Plan) (*Ticket, bool) {
	if m == nil {
		return nil, true
	}
	t := &Ticket{m: m, armed: map[*Entry]bool{}, plan: plan}
	ok := true
	plan.Root.Walk(func(pn *physical.PlanNode) {
		switch pn.E.Kind {
		case physical.CacheScanOp:
			ok = ok && t.pinTable(pn.E.Arm.CacheName, pn.E.Arm.CacheTier)
		case physical.InvokePartial:
			for _, bs := range pn.E.Arm.BindScans {
				ok = ok && t.pinTable(bs.Table, bs.Tier)
			}
			ok = ok && !m.anyReady(pn.E.Arm.BindFP, pn.E.Children[0].Prop, pn.E.Arm.ResidualBinds)
		}
	})
	if !ok {
		t.Abort()
		return nil, false
	}
	m.clock.Add(1)
	return t, true
}

// pinTable pins the ready entry backing a cache table. It reports false when
// the entry is gone, not ready, or has moved to a different tier than the one
// the cached plan was priced at.
func (t *Ticket) pinTable(table string, tier cost.Tier) bool {
	return t.withTable(table, tier, t.pin)
}

// ArmAnswer arms n, the root of the one query of the ticket's DAG, with a scan
// of the table another batch's plan read that same query's answer from. Arm
// finds a stored result by the canonical fingerprint of the batch it is asked
// for, and a query's fingerprint can differ between a window — where a
// sibling query's derivations join its groups — and the query on its own; the
// table a window's plan read for the query is the query's answer whichever
// DAG asks. It reports whether the table is still there, ready and in tier;
// a root Arm already armed with that table is left as it is.
func (t *Ticket) ArmAnswer(pd *physical.DAG, n *physical.Node, table string, tier cost.Tier) bool {
	for _, e := range n.Exprs {
		if e.Kind == physical.CacheScanOp && e.Arm.CacheName == table {
			return true
		}
	}
	return t.withTable(table, tier, func(e *Entry) {
		sc := t.m.tierScanCost(e.Tier, e.Bytes)
		pd.ArmCacheScan(n, table, sc, tier)
		t.pin(e)
	})
}

// withTable calls use, under mu, on the ready entry backing a cache table in
// the given tier, and reports whether there is one.
func (t *Ticket) withTable(table string, tier cost.Tier, use func(*Entry)) bool {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.byTable[table]
	if e == nil || !e.ready || e.Tier != tier {
		return false
	}
	use(e)
	return true
}

// anyReady reports whether any of the given bindings of the expression
// (fp, prop) has a ready entry.
func (m *Manager) anyReady(fp string, prop physical.Prop, binds []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, bind := range binds {
		if e := m.index[fp][entryID{prop.Key(), bind}]; e != nil && e.ready {
			return true
		}
	}
	return false
}

// Commit finishes a successfully executed batch: pending entries become
// ready with real byte accounting (heap pages actually written, replacing
// the optimizer estimate), armed entries the executed plan read are
// reinforced (value-density goes up with every hit) — a warm hit also
// schedules the entry's promotion — and the store is rebalanced if real
// sizes overshot its budgets. It returns the number of distinct entries the
// executed plan read (the batch's hit count, also what reinforcement was
// applied to).
func (t *Ticket) Commit() int { return t.finish(true) }

// Abort withdraws a failed batch: pending entries (and any partially
// spooled tables) are dropped and every pin released.
func (t *Ticket) Abort() { t.finish(false) }

// finish settles the ticket's pending and armed entries in one critical
// section, each group in table-name order. A ticket that holds no entry
// leaves the store alone.
func (t *Ticket) finish(executed bool) (hits int) {
	if t == nil || t.m == nil {
		return 0
	}
	m := t.m
	t.m = nil

	// Which armed tables did the executed plan actually read, and what did
	// the reads save? Each is the largest per-use saving the plan's arms
	// recorded for it, so a plan saves the same from the plan cache as when
	// it was optimized. An InvokePartial node reads every one of its binding
	// tables; it also counts one partial hit and its residual recomputes
	// here, since plan extraction choosing the expression is what makes the
	// hit real.
	read := map[string]float64{}
	if executed && t.plan != nil {
		t.plan.Root.Walk(func(pn *physical.PlanNode) {
			switch pn.E.Kind {
			case physical.CacheScanOp:
				read[pn.E.Arm.CacheName] = max(read[pn.E.Arm.CacheName], pn.E.Arm.Saving)
			case physical.InvokePartial:
				for _, bs := range pn.E.Arm.BindScans {
					read[bs.Table] = max(read[bs.Table], bs.Saving)
				}
				m.bindPartialHits.Inc()
				m.bindResidual.Add(int64(len(pn.E.Arm.ResidualBinds)))
			}
		})
	}

	pending, armed := t.pending, make([]*Entry, 0, len(t.armed))
	for e := range t.armed {
		armed = append(armed, e)
	}
	changed := false
	var promote []*Entry
	if len(pending) > 0 || len(armed) > 0 {
		for _, es := range [][]*Entry{pending, armed} {
			slices.SortFunc(es, func(a, b *Entry) int { return strings.Compare(a.Table, b.Table) })
		}
		m.mu.Lock()
		for _, e := range pending {
			if _, err := m.db.Cache(e.Table); !executed || err != nil {
				// Aborted, or the plan never produced the table: withdraw
				// the claim.
				m.dropEntryLocked(e)
				continue
			}
			// Real byte accounting, clamped to one page: a zero-row result
			// is perfectly cacheable (its heap allocated no pages, and
			// serving the empty scan is maximally cheap) but must not
			// divide density by zero or dodge eviction forever.
			m.refileLocked(e, cost.TierRAM, max(m.db.CacheBytes(e.Table), storage.PageSize))
			e.ready = true
			m.admissions.Inc()
			if e.Bind != "" {
				m.bindAdmissions.Inc()
			}
			changed = true
		}
		for _, e := range armed {
			saving, ok := read[e.Table]
			if !ok {
				continue
			}
			if saving <= 0 {
				saving = e.admitValue
			}
			e.Hits++
			e.LastUsed = m.clock.Load()
			e.Value += saving
			m.hits.Inc()
			if e.Bind != "" {
				m.bindHits.Inc()
			}
			m.savedCost.Add(saving)
			hits++
			// A warm hit schedules the entry's asynchronous promotion back
			// to RAM: single-flight via the promoting flag, and holding its
			// own pin so eviction cannot race the copy. The requesting batch
			// never waits — it already has its rows.
			if e.Tier == cost.TierWarm {
				m.warmHits.Inc()
				if !e.promoting {
					e.promoting = true
					e.pins++
					promote = append(promote, e)
				}
			}
		}
		for _, es := range [][]*Entry{armed, pending} {
			for _, e := range es {
				m.unpinLocked(e)
			}
		}
		if m.rebalanceLocked() {
			changed = true
		}
		m.publishLocked()
		m.mu.Unlock()
	}
	if !executed {
		return 0
	}
	m.batches.Inc()
	if hits > 0 {
		m.hitBatches.Inc()
	}
	if changed {
		m.gen.Add(1)
	}
	for _, e := range promote {
		m.promWG.Add(1)
		go m.promote(e)
	}
	return hits
}

// isBaseScanGroup reports whether the group is a bare base-table scan
// (already stored; caching it would duplicate the base table).
func isBaseScanGroup(g *dag.Group) bool {
	for _, e := range g.Exprs {
		if _, ok := e.Op.(algebra.Scan); ok {
			return true
		}
	}
	return false
}
