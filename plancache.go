package mqo

import (
	"container/list"
	"maps"
	"sync"

	"mqo/internal/cache"
	"mqo/internal/physical"
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

// planCache is a mutex-guarded LRU of optimized batch Results keyed by what
// the caller sent: how the batch is optimized and its queries' trees as
// written (Optimizer.batchKey).
//
// An entry knows what it was planned against — the result-cache store and
// its ready-set generation. A plan that computes anything is reused only at
// that generation: an admission or eviction since may have changed the best
// plan. A plan that only reads stored answers is reused at any generation,
// for as long as the store still holds every table it reads in the tier it
// was priced at (cache.Manager.PinPlan): nothing admitted later beats reading
// the answer.
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
	// store and gen are the result-cache store the plan was armed against
	// (nil: none) and the store's generation at the time.
	store *cache.Manager
	gen   int64
	// stored marks a plan that computes nothing (readsOnlyStored).
	stored bool
}

func newPlanCache(n int) *planCache {
	if n < 1 {
		n = 1
	}
	return &planCache{cap: n, lru: list.New(), byKey: map[string]*list.Element{}}
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

// get returns the plan cached under key, with the ticket pinning every
// result-cache table it reads, if the plan is still good against store. An
// entry that is not — planned against another store, computing at an older
// generation, or refused by PinPlan — is dropped and the probe counts as a
// miss. PinPlan takes the store's shard locks, so it runs outside the plan
// cache's own.
func (c *planCache) get(key string, store *cache.Manager) (*Result, *cache.Ticket, bool) {
	gen := store.Generation()
	c.mu.Lock()
	el := c.byKey[key]
	c.mu.Unlock()
	var (
		ent    *planEntry
		ticket *cache.Ticket
		ok     bool
	)
	if el != nil {
		ent = el.Value.(*planEntry)
		if ent.store == store && (ent.stored || ent.gen == gen) {
			ticket, ok = store.PinPlan(ent.res.Plan)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		if el != nil && c.byKey[key] == el {
			c.removeLocked(el)
		}
		return nil, nil, false
	}
	c.hits++
	if c.byKey[key] == el {
		c.lru.MoveToFront(el)
	}
	return cloneResult(ent.res), ticket, true
}

// peek reports whether key holds a plan that only reads stored answers. It
// is neither a hit nor a miss and leaves the LRU order alone.
func (c *planCache) peek(key string) (found, stored bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.byKey[key]
	return el != nil, el != nil && el.Value.(*planEntry).stored
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

// put caches res, planned against store at generation gen, under key. An
// entry already there is replaced by a new list element: an element and its
// planEntry never change once linked, which lets get judge one outside the
// lock and tell afterwards whether it is still the one cached.
func (c *planCache) put(key string, res *Result, store *cache.Manager, gen int64) {
	ent := &planEntry{key: key, res: res, store: store, gen: gen, stored: readsOnlyStored(res.Plan)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.removeLocked(el)
	}
	c.byKey[key] = c.lru.PushFront(ent)
	for c.lru.Len() > c.cap {
		c.removeLocked(c.lru.Back())
	}
}

func (c *planCache) removeLocked(el *list.Element) {
	c.lru.Remove(el)
	delete(c.byKey, el.Value.(*planEntry).key)
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len(), Cap: c.cap}
}
