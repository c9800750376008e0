package mqo

import (
	"container/list"
	"maps"
	"sync"

	"mqo/internal/physical"
)

// CacheStats is plan-cache accounting: how many OptimizeBatch/OptimizeSQL
// calls were served from the cache versus optimized fresh.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
	Cap     int
}

// planCache is a mutex-guarded LRU of optimized batch Results keyed by the
// batch's canonical fingerprint string.
//
// Hits return a defensive copy: the Result struct and its top-level slices
// (Materialized, Plan.Mats) and the Plan struct itself are cloned per
// caller, so one hitter appending to or reordering those cannot corrupt
// another's view. The plan *nodes* stay shared — they are immutable once
// extracted and must be treated as read-only by every consumer.
type planCache struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List // front = most recently used; values are *planEntry
	byKey  map[string]*list.Element
	hits   int64
	misses int64
}

type planEntry struct {
	key string
	res *Result
}

func newPlanCache(n int) *planCache {
	if n < 1 {
		n = 1
	}
	return &planCache{cap: n, lru: list.New(), byKey: map[string]*list.Element{}}
}

func (c *planCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return cloneResult(el.Value.(*planEntry).res), true
}

// cloneResult shallow-copies a cached Result: fresh Result and Plan
// structs, fresh top-level slices and plan-node map, shared (immutable)
// plan nodes.
func cloneResult(r *Result) *Result {
	cp := *r
	cp.Materialized = append([]*physical.Node(nil), r.Materialized...)
	if r.Plan != nil {
		p := *r.Plan
		p.Mats = append([]*physical.PlanNode(nil), r.Plan.Mats...)
		p.ByNode = maps.Clone(r.Plan.ByNode)
		cp.Plan = &p
	}
	return &cp
}

func (c *planCache) put(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planEntry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&planEntry{key: key, res: res})
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.byKey, last.Value.(*planEntry).key)
	}
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len(), Cap: c.cap}
}
