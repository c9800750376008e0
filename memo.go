package mqo

import (
	"strings"
	"sync"

	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/obs"
	"mqo/internal/physical"
)

// dagMemoCap bounds how many batch compositions a session keeps DAGs for.
// What one retains, measured (live heap after two collections): the finalized
// logical DAG of BQ5 0.60 MB, of the six-tenant BQ5 3.66 MB, of CQ5 0.53 MB,
// of SSB flight 3 0.08 MB; the idle physical DAG over it once all four
// algorithms ran on it — nodes, operation nodes, costing state, its journal,
// its two plan drafts and the searches' scratch — BQ5 0.67 MB, six-tenant
// BQ5 3.94 MB, CQ5 1.16 MB, SSB flight 3 0.13 MB, up to 0.03 more once armed
// and stripped. Sixteen six-tenant pairs are ~122 MB.
const dagMemoCap = 16

var (
	dagMemoHit  = obs.Default().Counter("mqo_dag_memo_total", "Batch optimizations by whether the session already held the batch's expanded logical DAG.", obs.L("outcome", "hit"))
	dagMemoMiss = obs.Default().Counter("mqo_dag_memo_total", "Batch optimizations by whether the session already held the batch's expanded logical DAG.", obs.L("outcome", "miss"))

	physicalReused = obs.Default().Counter("mqo_physical_dag_total", "Batch optimizations by whether they re-costed an idle physical DAG the session kept or built one.", obs.L("outcome", "reused"))
	physicalBuilt  = obs.Default().Counter("mqo_physical_dag_total", "Batch optimizations by whether they re-costed an idle physical DAG the session kept or built one.", obs.L("outcome", "built"))
)

// CacheStats is plan-cache accounting: how many OptimizeBatch/OptimizeSQL/
// Run/Submit batches were served from the cache versus optimized fresh. A
// cached plan the result cache can no longer serve (a table it reads was
// evicted or changed tier) counts as a miss.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
	Cap     int
}

// memo is a session's memo of batch compositions, under one mutex: one entry
// per composition, keyed by the batch's trees as written (stmtCache.key),
// holding its finalized logical DAG, at most one idle physical DAG over it,
// and its plans by how they were planned (planKey). Calls pass the key as
// the bytes of a reused buffer (memoKey): a lookup converts them in the map
// index, which copies nothing, and only an entry's insertion copies them
// into the string the entry keeps.
//
// A logical DAG depends only on the trees and the catalog, and no reader writes
// to it (dag.DAG): calls share it. A physical DAG is one call's at a time
// (checkout, checkin): the result cache arms it for that call only, checkin
// strips it, and the next optimization re-costs it (core.Optimize resets it).
// Calls that overlap on a composition build more; one is kept.
//
// A plan knows the result-cache store and generation it was planned at. A
// plan that computes anything is reused only at that generation: an admission
// or eviction since may have changed the best plan. A plan that only reads
// stored answers is reused for as long as the store holds every table it
// reads in the tier it was priced at (cache.Manager.PinPlan): nothing admitted
// later beats reading the answer.
//
// Plans and DAGs are bounded apart — planCap plans, dagMemoCap DAGs — and
// each evicts its least recently used: a use stamps it with the memo's clock,
// and an overflow, on a miss path only, scans for the smallest stamp. A plan
// is used by a hit or a put, a DAG by a memo hit or its insertion. An entry
// left with neither is deleted. Like the statement cache, the memo assumes
// that the tables of the session's catalog do not change under it.
type memo struct {
	mu      sync.Mutex
	planCap int // plans kept (WithPlanCache), 0 for none; fixed at Open
	entries map[string]*memoEntry
	clock   uint64 // the last use stamp handed out

	nPlans, nDAGs int
	hits, misses  int64
}

// memoEntry is one composition's: its key; its logical DAG, nil while it has
// none; a physical DAG over it that no call holds, or nil; the logical DAG's
// use stamp; and its plans.
type memoEntry struct {
	key     string
	ld      *dag.DAG
	idle    *physical.DAG
	dagUsed uint64
	plans   map[planKey]*planEntry
}

// planKey says how a composition is planned: the algorithm, whether against a
// result-cache store (an optimize-only call and an executed batch share no
// plan) and, against one, the bindings a parameterized plan was armed for.
// The session's options are not in it: they do not change after Open.
type planKey struct {
	alg    Algorithm
	stored bool
	binds  string
}

// newPlanKey is the key of a batch planned with alg against store (nil: no
// store) for paramSets.
func newPlanKey(alg Algorithm, store *cache.Manager, paramSets []map[string]algebra.Value) planKey {
	k := planKey{alg: alg, stored: store != nil}
	if k.stored {
		k.binds = bindingsSignature(paramSets)
	}
	return k
}

// bindingsSignature renders a batch's bindings in ParamSets order (the row
// order depends on it), each key followed by ";": none render empty.
func bindingsSignature(sets []map[string]algebra.Value) string {
	var b strings.Builder
	for _, ps := range sets {
		b.WriteString(algebra.BindingKey(ps))
		b.WriteByte(';')
	}
	return b.String()
}

// planEntry is a cached plan, the store it was armed against (nil: none) at
// generation gen, whether it computes nothing (readsOnlyStored), and its use
// stamp. Only the stamp changes once it is cached — a put replaces the entry —
// so get can judge one outside the lock and tell later if it is still cached.
type planEntry struct {
	res    *Result
	store  *cache.Manager
	gen    int64
	stored bool
	used   uint64
}

// entryLocked returns the entry for trees, making an empty one if there is
// none.
func (m *memo) entryLocked(trees []byte) *memoEntry {
	ent := m.entries[string(trees)]
	if ent == nil {
		ent = &memoEntry{key: string(trees), plans: map[planKey]*planEntry{}}
		m.entries[ent.key] = ent
	}
	return ent
}

// readsOnlyStored reports whether the plan computes nothing: it
// materializes nothing and every query root is a leaf reading a result-cache
// table.
func readsOnlyStored(p *physical.Plan) bool {
	if len(p.Mats) > 0 {
		return false
	}
	for _, pn := range p.QueryRoots() {
		if pn.E.Kind != physical.CacheScanOp {
			return false
		}
	}
	return true
}

// get returns the plan cached for trees under k — the cached Result itself,
// which no one may write to — with the ticket pinning every result-cache
// table it reads, if the plan is still good against store.
// A plan that is not — planned against another store, computing at an older
// generation, or refused by PinPlan — is dropped and the probe counts as a
// miss. PinPlan takes the store's lock, so it runs outside the memo's own.
func (m *memo) get(trees []byte, k planKey, store *cache.Manager) (*Result, *cache.Ticket, bool) {
	gen := store.Generation()
	m.mu.Lock()
	ent := m.entries[string(trees)]
	var pe *planEntry
	if ent != nil {
		pe = ent.plans[k]
	}
	m.mu.Unlock()
	var ticket *cache.Ticket
	ok := false
	if pe != nil && pe.store == store && (pe.stored || pe.gen == gen) {
		ticket, ok = store.PinPlan(pe.res.Plan)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	current := pe != nil && ent.plans[k] == pe // a dropped plan left its entry's map
	if !ok {
		m.misses++
		if current {
			m.dropPlanLocked(ent, k)
		}
		return nil, nil, false
	}
	m.hits++
	if current {
		m.clock++
		pe.used = m.clock
	}
	return pe.res, ticket, true
}

// peek reports whether trees hold a plan under k that only reads stored
// answers. It is neither a hit nor a miss and uses nothing.
func (m *memo) peek(trees []byte, k planKey) (found, stored bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ent := m.entries[string(trees)]; ent != nil && ent.plans[k] != nil {
		return true, ent.plans[k].stored
	}
	return false, false
}

// cloneResult shallow-copies a cached Result for a caller outside the
// session: fresh Result and Plan structs, fresh Mats and Materialized
// slices, shared (immutable) plan nodes. A plan-cache hit's copy
// reports the hit's own optimize phase as Stats.OptTime, not the time of
// the search that built the plan.
func cloneResult(r *Result, meta *execMeta) *Result {
	cp := *r
	if meta.PlanCacheHit {
		cp.Stats.OptTime = meta.Phases.Optimize
	}
	cp.Materialized = append([]*physical.Node(nil), r.Materialized...)
	if r.Plan != nil {
		p := *r.Plan
		p.Mats = append([]*physical.PlanNode(nil), r.Plan.Mats...)
		cp.Plan = &p
	}
	return &cp
}

// put caches res, planned against store at generation gen, for trees under
// k, replacing any plan there, and drops the least recently used plans
// beyond planCap.
func (m *memo) put(trees []byte, k planKey, res *Result, store *cache.Manager, gen int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.entryLocked(trees)
	if ent.plans[k] == nil {
		m.nPlans++
	}
	m.clock++
	ent.plans[k] = &planEntry{res: res, store: store, gen: gen, stored: readsOnlyStored(res.Plan), used: m.clock}
	for m.nPlans > m.planCap {
		var oldEnt *memoEntry
		var oldKey planKey
		var oldest *planEntry
		for _, e := range m.entries {
			for key, pe := range e.plans {
				if oldest == nil || pe.used < oldest.used {
					oldEnt, oldKey, oldest = e, key, pe
				}
			}
		}
		m.dropPlanLocked(oldEnt, oldKey)
	}
}

// dropPlanLocked deletes the plan ent caches under k, and ent with it if it
// holds nothing else.
func (m *memo) dropPlanLocked(ent *memoEntry, k planKey) {
	delete(ent.plans, k)
	m.nPlans--
	if len(ent.plans) == 0 && ent.ld == nil {
		delete(m.entries, ent.key)
	}
}

// dropStore deletes every plan armed against store, which is closing: get
// would never serve one again.
func (m *memo) dropStore(store *cache.Manager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ent := range m.entries {
		for k, pe := range ent.plans {
			if pe.store == store {
				m.dropPlanLocked(ent, k)
			}
		}
	}
}

// stats is plan-cache accounting, zero-valued without a plan cache.
func (m *memo) stats() CacheStats {
	if m.planCap == 0 {
		return CacheStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return CacheStats{Hits: m.hits, Misses: m.misses, Entries: m.nPlans, Cap: m.planCap}
}

// checkout returns a physical DAG of queries (trees) for one call to own until
// checkin: the idle one, reset, or one built over the logical DAG, expanded
// now if there is none. Concurrent misses each expand; the first to finish is
// kept and the others use its DAG.
func (m *memo) checkout(cat *catalog.Catalog, model cost.Model, trees []byte, queries []*Query) (*memoEntry, *physical.DAG, error) {
	m.mu.Lock()
	ent := m.entries[string(trees)]
	if ent != nil && ent.ld != nil {
		m.clock++
		ent.dagUsed = m.clock
		dagMemoHit.Inc()
	} else {
		m.mu.Unlock()
		dagMemoMiss.Inc()
		ld, err := core.BuildLogical(cat, queries)
		if err != nil {
			return nil, nil, err
		}
		m.mu.Lock()
		if ent = m.entryLocked(trees); ent.ld == nil {
			m.clock++
			ent.ld, ent.dagUsed = ld, m.clock
			if m.nDAGs++; m.nDAGs > dagMemoCap {
				m.evictDAGLocked()
			}
		}
	}
	ld, pd := ent.ld, ent.idle
	ent.idle = nil
	m.mu.Unlock()
	if pd != nil {
		pd.Reset()
		physicalReused.Inc()
		return ent, pd, nil
	}
	physicalBuilt.Inc()
	pd, err := physical.Build(ld, model)
	return ent, pd, err
}

// evictDAGLocked drops the least recently used logical DAG, and the idle
// physical DAG over it.
func (m *memo) evictDAGLocked() {
	var oldest *memoEntry
	for _, e := range m.entries {
		if e.ld != nil && (oldest == nil || e.dagUsed < oldest.dagUsed) {
			oldest = e
		}
	}
	oldest.ld, oldest.idle = nil, nil
	m.nDAGs--
	if len(oldest.plans) == 0 {
		delete(m.entries, oldest.key)
	}
}

// checkin strips what the result cache armed on pd, checked out of ent, once
// the caller reads its costing state no more, and makes pd the idle DAG unless
// there is one or its logical DAG is not the entry's any more (evicted since).
func (m *memo) checkin(ent *memoEntry, pd *physical.DAG) {
	pd.Disarm()
	m.mu.Lock()
	if ent.idle == nil && ent.ld == pd.L {
		ent.idle = pd
	}
	m.mu.Unlock()
}
