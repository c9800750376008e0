package mqo

import (
	"container/list"
	"sync"

	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/obs"
	"mqo/internal/physical"
)

// dagMemoCap bounds how many batch compositions a session keeps DAGs for.
// What one retains, measured (live heap after a collection): the finalized
// logical DAG of BQ5 0.62 MB, of the six-tenant BQ5 3.76 MB, of CQ5 0.54 MB,
// of SSB flight 3 0.09 MB; the idle physical DAG over it once all four
// algorithms have run on it — nodes, operation nodes, costing state and the
// CostViews a two-worker search pooled — BQ5 0.60 MB, six-tenant BQ5 3.60 MB,
// CQ5 1.01 MB, SSB flight 3 0.12 MB. Sixteen six-tenant pairs are some 120 MB.
const dagMemoCap = 16

var (
	dagMemoHit  = obs.Default().Counter("mqo_dag_memo_total", "Batch optimizations by whether the session already held the batch's expanded logical DAG.", obs.L("outcome", "hit"))
	dagMemoMiss = obs.Default().Counter("mqo_dag_memo_total", "Batch optimizations by whether the session already held the batch's expanded logical DAG.", obs.L("outcome", "miss"))

	physicalReused = obs.Default().Counter("mqo_physical_dag_total", "Batch optimizations by whether they re-costed an idle physical DAG the session kept or built one.", obs.L("outcome", "reused"))
	physicalBuilt  = obs.Default().Counter("mqo_physical_dag_total", "Batch optimizations by whether they re-costed an idle physical DAG the session kept or built one.", obs.L("outcome", "built"))
)

// dagMemo is a session's LRU of batch compositions, keyed by the batch's
// trees as written (stmtCache.treesKey): the part of the plan-cache key that
// says what is optimized, without how. Per composition it keeps the finalized
// logical DAG and at most one idle physical DAG over it.
//
// A logical DAG depends on nothing else — the trees and the session's catalog
// — so every later optimization of the same composition, under any algorithm,
// options or result-cache generation, expands nothing; no reader writes to it
// (dag.DAG), so any number of calls share it at once. A physical DAG is one
// call's at a time (checkout, checkin): the next optimization of the
// composition re-costs it (core.Optimize resets it) instead of building
// another, unless the result cache armed it — its extra alternatives priced
// one store generation — or two calls overlapped, each with a DAG of its own.
// Two trees the key tells apart get two entries even where expansion would
// have made them one. Like the plan cache, the memo assumes that the tables
// of the session's catalog do not change under it.
type dagMemo struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *dagMemoEntry
	byKey map[string]*list.Element
}

type dagMemoEntry struct {
	key string
	ld  *dag.DAG
	// idle is a physical DAG over ld that no call holds, or nil.
	idle *physical.DAG
}

// checkout returns a physical DAG of queries, whose tree key is key, for one
// call to own until it hands the DAG back (checkin): the composition's idle
// one, reset to the state Build leaves, or one built now over the memo's
// logical DAG, which is expanded now if the memo has none.
func (m *dagMemo) checkout(cat *catalog.Catalog, model cost.Model, key string, queries []*Query) (*dagMemoEntry, *physical.DAG, error) {
	ent, err := m.entry(cat, key, queries)
	if err != nil {
		return nil, nil, err
	}
	m.mu.Lock()
	pd := ent.idle
	ent.idle = nil
	m.mu.Unlock()
	if pd != nil {
		pd.Reset()
		physicalReused.Inc()
		return ent, pd, nil
	}
	physicalBuilt.Inc()
	pd, err = physical.Build(ent.ld, model)
	return ent, pd, err
}

// checkin hands back pd, checked out of ent, once nothing the caller still
// does reads its costing state: it becomes the composition's idle DAG unless
// it is armed or the composition has one already.
func (m *dagMemo) checkin(ent *dagMemoEntry, pd *physical.DAG) {
	if pd.Armed() {
		return
	}
	m.mu.Lock()
	if ent.idle == nil {
		ent.idle = pd
	}
	m.mu.Unlock()
}

// entry returns the memo's entry for queries, whose tree key is key, making
// one — with the finalized logical DAG built now — if there is none.
// Concurrent misses on one key each build; the first to finish is kept, and
// the others take its entry.
func (m *dagMemo) entry(cat *catalog.Catalog, key string, queries []*Query) (*dagMemoEntry, error) {
	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		m.lru.MoveToFront(el)
		m.mu.Unlock()
		dagMemoHit.Inc()
		return el.Value.(*dagMemoEntry), nil
	}
	m.mu.Unlock()
	dagMemoMiss.Inc()
	ld, err := core.BuildLogical(cat, queries)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byKey == nil {
		m.lru, m.byKey = list.New(), map[string]*list.Element{}
	}
	if el, ok := m.byKey[key]; ok {
		return el.Value.(*dagMemoEntry), nil
	}
	ent := &dagMemoEntry{key: key, ld: ld}
	m.byKey[key] = m.lru.PushFront(ent)
	if m.lru.Len() > dagMemoCap {
		old := m.lru.Remove(m.lru.Back()).(*dagMemoEntry)
		delete(m.byKey, old.key)
	}
	return ent, nil
}
