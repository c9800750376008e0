package mqo

import (
	"container/list"
	"sync"

	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/dag"
	"mqo/internal/obs"
)

// dagMemoCap bounds how many finalized logical DAGs a session keeps. What one
// retains, measured: BQ5 0.62 MB, the six-tenant BQ5 3.76 MB, CQ5 0.54 MB, SSB
// flight 3 0.09 MB — sixteen of the largest of these are some 60 MB.
const dagMemoCap = 16

var (
	dagMemoHit  = obs.Default().Counter("mqo_dag_memo_total", "Batch optimizations by whether the session already held the batch's expanded logical DAG.", obs.L("outcome", "hit"))
	dagMemoMiss = obs.Default().Counter("mqo_dag_memo_total", "Batch optimizations by whether the session already held the batch's expanded logical DAG.", obs.L("outcome", "miss"))
)

// dagMemo is a session's LRU of finalized logical DAGs, keyed by the batch's
// trees as written (treesKey): the part of the plan-cache key that says what
// is optimized, without how. A logical DAG depends on nothing else — the
// trees and the session's catalog — so every later optimization of the same
// composition, under any algorithm, options or result-cache generation,
// expands nothing and builds only its own physical DAG over the shared one,
// which no reader writes to (dag.DAG). Two trees the key tells apart get two
// DAGs even where expansion would have made them one. Like the plan cache,
// the memo assumes that the tables of the session's catalog do not change
// under it.
type dagMemo struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *dagMemoEntry
	byKey map[string]*list.Element
}

type dagMemoEntry struct {
	key string
	ld  *dag.DAG
}

// logical returns the finalized logical DAG of queries, whose tree key is
// key: the memo's, or one built now and kept. Concurrent misses on one key
// each build; the first to finish is kept.
func (m *dagMemo) logical(cat *catalog.Catalog, key string, queries []*Query) (*dag.DAG, error) {
	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		m.lru.MoveToFront(el)
		ld := el.Value.(*dagMemoEntry).ld
		m.mu.Unlock()
		dagMemoHit.Inc()
		return ld, nil
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
	if _, ok := m.byKey[key]; !ok {
		m.byKey[key] = m.lru.PushFront(&dagMemoEntry{key: key, ld: ld})
		if m.lru.Len() > dagMemoCap {
			old := m.lru.Remove(m.lru.Back()).(*dagMemoEntry)
			delete(m.byKey, old.key)
		}
	}
	return ld, nil
}
