// Package cache is the cross-batch transient materialized-view store the
// paper's §8 closing direction points to ("we have recently applied the
// greedy algorithm ... to tackle the problem of cache replacement in query
// result caching"): a bounded, row-backed store of spooled intermediate
// results that survives across micro-batches, so repeated subexpressions in
// later traffic are answered by scanning a cache table instead of being
// recomputed.
//
// One identity, one path. A cached result is identified by
// (fingerprint, property, binding): the canonical logical fingerprint of the
// expression, the physical property its rows were stored with, and the
// binding key (algebra.BindingKey) of the one parameter binding the rows were
// computed under. A parameter-free expression's result is simply the entry
// whose binding is empty; one binding's rows of a §5 parameterized or
// correlated Invoke body is the same kind of entry with the binding filled
// in. A parameter-dependent fingerprint renders parameters by name ("?lo"),
// never by bound value, so the triple is a complete identity: equal bound
// values always collide on one entry, different values never do. Every stage
// below runs once over that identity — nothing in the store, the ticket or
// the tiering code asks which of the two kinds an entry is, except to count
// it.
//
// One batch's life cycle:
//
//	t := m.Arm(pd, paramSets) // pre-pass: arm CacheScan / InvokePartial
//	res := core.Optimize(...) // all algorithms price armed hits natively
//	spools := t.PlanSpools(res.Plan) // single-flight admission decisions
//	exec.Run(..., &exec.Env{Cache: &exec.CacheIO{
//		Spools: spools, BindSpools: t.BindingSpools()}})
//	t.Commit()                // real-byte accounting, reinforcement, eviction
//
// Arm walks the batch DAG once. A node whose fingerprint has a ready
// empty-binding entry with a satisfying property gains a CacheScan access
// path; an Invoke whose body has ready entries for some of the batch's
// bindings gains an InvokePartial alternative — cached bindings served by
// table scans, residual bindings recomputed through the body at the residual
// fraction of the Invoke weight. Both are priced at the entry's tier and
// both pin what they arm, so every search algorithm trades hits against
// recomputation through the ordinary weighted-child recurrence and an
// in-flight plan can never lose a table it was optimized against.
//
// Admission is one routine over one candidate type. PlanSpools collects the
// plan's materialized intermediates and query roots (empty binding), then
// the residual bindings of its Invoke nodes, and offers each list to the
// same density-sorted claim loop: single-flight probe of the index, room
// made by evicting strictly less value-dense unpinned entries, a pinned
// pending entry inserted immediately so a concurrent batch never spools the
// same result twice. Table names come from one global sequence, so admission
// order — not the shard count — fixes the rc<seq> names in plans.
//
// The store has two tiers and one room-maker. The RAM tier holds spooled
// tables in the primary buffer pool; the warm tier holds heap files on disk.
// Making room in a tier evicts its lowest-density unpinned entries: a RAM
// victim valuable enough to earn warm space is demoted (which makes room in
// the warm tier the same way), anything else is dropped with its table. A
// committed hit on a warm entry schedules an asynchronous single-flight
// promotion back to RAM that holds its own pin and never blocks the batch.
//
// The store is sharded by fingerprint: each shard has its own mutex, index,
// byte accounting and slice of both budgets, so every entry of one
// expression — all properties, all bindings — lives in one shard and
// single-flight admission and Arm's matching stay shard-local. The batch
// clock, ready-set generation and table-name sequence are global atomics.
// No two shard locks are ever held at once, and none across optimization or
// execution.
package cache

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mqo/internal/cost"
	"mqo/internal/obs"
	"mqo/internal/physical"
	"mqo/internal/storage"
)

// Entry is one cached materialized result.
type Entry struct {
	// Key is the canonical logical fingerprint of the cached expression.
	Key string
	// Prop is the physical property the result was stored with.
	Prop physical.Prop
	// Bind is the binding key (algebra.BindingKey) the rows were computed
	// under: empty for a parameter-free expression's whole result, otherwise
	// the one binding of the parameter-dependent expression named by Key.
	Bind string
	// Table names the spooled table in the database's cache namespace.
	Table string
	// Bytes is the stored size: the optimizer's estimate while the entry
	// is pending, the real heap size (pages × page size) once ready.
	Bytes int64
	// Value accumulates the estimated cost the entry has saved (its
	// admission value plus reinforcement per hit); eviction removes the
	// lowest Value/Bytes density first.
	Value float64
	// Hits counts batches whose executed plan read the entry.
	Hits int
	// LastUsed is the batch clock of the last hit (admission counts).
	LastUsed int64
	// Tier is the storage tier the spooled table currently lives in: RAM
	// (primary buffer pool) or warm (disk-backed heap file).
	Tier cost.Tier

	// id is (Prop.Key(), Bind), the entry's key under its fingerprint.
	id entryID
	// admitValue is the per-use saving estimated at admission, the
	// reinforcement added per hit when no fresher estimate exists.
	admitValue float64
	// ready is false while the admitting batch is still executing
	// (single-flight: the identity is claimed, but the table has no rows yet).
	ready bool
	// pins counts in-flight batches whose plan may read the entry; pinned
	// entries are never evicted. An async promotion holds its own pin.
	pins int
	// promoting single-flights the async warm→RAM promotion.
	promoting bool
	// staleWarm marks a RAM entry whose warm copy is still on disk because
	// an in-flight reader may be scanning it; the last unpin drops it.
	staleWarm bool
	// si is the index of the shard owning the entry.
	si int
}

// entryID tells apart the entries that share a fingerprint.
type entryID struct{ prop, bind string }

// density is the eviction metric.
func (e *Entry) density() float64 { return e.Value / float64(e.Bytes) }

// Stats is the store's accounting, shaped for JSON (GET /stats).
type Stats struct {
	Entries     int   `json:"entries"`
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	// Per-tier structure: WarmEntries of Entries live in the warm (disk)
	// tier, occupying WarmUsedBytes of WarmBudgetBytes on disk. (Entries
	// and UsedBytes/BudgetBytes stay RAM+pending-centric: UsedBytes counts
	// the primary-pool footprint only, so the two tiers' accounting adds
	// rather than overlaps.)
	WarmEntries     int   `json:"warm_entries"`
	WarmUsedBytes   int64 `json:"warm_used_bytes"`
	WarmBudgetBytes int64 `json:"warm_budget_bytes"`
	// Batches counts committed batches; HitBatches those whose executed
	// plan read at least one cache table.
	Batches    int64 `json:"batches"`
	HitBatches int64 `json:"hit_batches"`
	// Hits counts entry reads (one per entry per batch), Admissions and
	// Evictions entry life-cycle events. WarmHits is the subset of Hits
	// served from the warm tier; Demotions and Promotions count tier moves
	// (an eviction that demoted counts as a demotion, not an eviction).
	Hits       int64 `json:"hits"`
	WarmHits   int64 `json:"warm_hits"`
	Admissions int64 `json:"admissions"`
	Evictions  int64 `json:"evictions"`
	Demotions  int64 `json:"demotions"`
	Promotions int64 `json:"promotions"`
	// Binding-granularity accounting (§5 parameterized/correlated caching).
	// BindingEntries of Entries carry a binding; BindingHits counts reads of
	// those; BindingPartialHits counts executed InvokePartial plan nodes (one
	// per Invoke with at least one cached binding); BindingResidual totals
	// the residual bindings those partial hits recomputed; BindingAdmissions
	// the entries admitted with a binding.
	BindingEntries     int   `json:"binding_entries"`
	BindingHits        int64 `json:"binding_hits"`
	BindingPartialHits int64 `json:"binding_partial_hits"`
	BindingResidual    int64 `json:"binding_residual"`
	BindingAdmissions  int64 `json:"binding_admissions"`
	// SavedCostEst totals the estimated optimizer-cost-model seconds hits
	// saved versus recomputing.
	SavedCostEst float64 `json:"saved_cost_est"`
	// Generation increments whenever the set of ready entries changes; the
	// session plan cache records it with every plan, and reuses a plan that
	// computes anything only at the generation it was optimized against.
	Generation int64 `json:"generation"`
}

// HitRate is the fraction of committed batches that read the cache.
func (s Stats) HitRate() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.HitBatches) / float64(s.Batches)
}

// ShardStats is one shard's slice of the store, for tests and /stats.
type ShardStats struct {
	Shard           int   `json:"shard"`
	Entries         int   `json:"entries"`
	UsedBytes       int64 `json:"used_bytes"`
	BudgetBytes     int64 `json:"budget_bytes"`
	WarmEntries     int   `json:"warm_entries"`
	WarmUsedBytes   int64 `json:"warm_used_bytes"`
	WarmBudgetBytes int64 `json:"warm_budget_bytes"`
}

// tierState is one tier's slice of a shard: the entries filed in it and
// their bytes against the tier's budget slice. Pending entries are filed in
// the RAM tier at their estimated size.
type tierState struct {
	used, budget int64
	entries      int
}

// cacheShard is one independently locked slice of the store. An
// expression's fingerprint picks its shard.
type cacheShard struct {
	mu sync.Mutex
	// index is the shard's one lookup structure: fingerprint → (property,
	// binding) → entry. Exact probes, Arm's best-satisfying-property match
	// and the per-binding classification all read it; byTable holds the
	// same entries by spooled table name.
	index   map[string]map[entryID]*Entry
	byTable map[string]*Entry
	tiers   [2]tierState // by cost.Tier
	bound   int          // entries with a non-empty binding
	// published is the snapshot the scrape gauges currently reflect.
	published snapshot
}

// snapshot is one shard's structure at an instant.
type snapshot struct {
	ShardStats
	bound int
}

// snapshotLocked reads the shard's structure out; Stats, PerShard, the byte
// getters and the scrape gauges all derive from it.
func (s *cacheShard) snapshotLocked(si int) snapshot {
	ram, warm := s.tiers[cost.TierRAM], s.tiers[cost.TierWarm]
	return snapshot{bound: s.bound, ShardStats: ShardStats{
		Shard: si, Entries: ram.entries + warm.entries, UsedBytes: ram.used, BudgetBytes: ram.budget,
		WarmEntries: warm.entries, WarmUsedBytes: warm.used, WarmBudgetBytes: warm.budget}}
}

// snapshot is snapshotLocked for callers not holding the shard lock.
func (s *cacheShard) snapshot(si int) snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(si)
}

// publishLocked brings the scrape gauges up to date after a state change,
// with the shard lock held: the shard's own labeled gauges are set, the
// store-wide ones move by the difference from what this shard last
// published, so no other shard's lock is needed.
func (s *cacheShard) publishLocked(m *Manager, si int) {
	now, was := s.snapshotLocked(si), s.published
	s.published = now
	m.shardUsedG[si].Set(now.UsedBytes)
	m.shardEntriesG[si].Set(int64(now.Entries))
	m.entriesG.Add(int64(now.Entries - was.Entries))
	m.usedG.Add(now.UsedBytes - was.UsedBytes)
	m.warmEntriesG.Add(int64(now.WarmEntries - was.WarmEntries))
	m.warmUsedG.Add(now.WarmUsedBytes - was.WarmUsedBytes)
	m.bindEntriesG.Add(int64(now.bound - was.bound))
}

// Manager is the store's controller. All methods are safe for concurrent
// use; no shard mutex is ever held across optimization or execution, and
// no two shard mutexes are ever held at once. The event counters and state
// gauges are registry-backed lock-free atomics shared between Stats()
// snapshots and the /metrics scrape; the budget and generation gauges double
// as the store's own copies of those values.
type Manager struct {
	Model cost.Model

	db     *storage.DB
	shards []*cacheShard

	clock    atomic.Int64
	tableSeq atomic.Int64

	// promWG tracks in-flight async promotions (WaitPromotions / Close).
	promWG sync.WaitGroup

	// Event counters (lock-free, registered on the default obs registry).
	batches    *obs.Counter
	hitBatches *obs.Counter
	hits       *obs.Counter
	warmHits   *obs.Counter
	admissions *obs.Counter
	evictions  *obs.Counter
	demotions  *obs.Counter
	promotions *obs.Counter
	// Binding-granularity counters (§5 parameterized/correlated caching).
	bindHits        *obs.Counter
	bindPartialHits *obs.Counter
	bindResidual    *obs.Counter
	bindAdmissions  *obs.Counter
	savedCost       *obs.FloatCounter
	// State gauges: totals across shards (publishLocked) and the store-wide
	// budgets and ready-set generation.
	entriesG     *obs.Gauge
	usedG        *obs.Gauge
	budgetG      *obs.Gauge
	warmEntriesG *obs.Gauge
	warmUsedG    *obs.Gauge
	warmBudgetG  *obs.Gauge
	bindEntriesG *obs.Gauge
	gen          *obs.Gauge
	// Per-shard gauges (label shard="i").
	shardUsedG    []*obs.Gauge
	shardEntriesG []*obs.Gauge
}

// NewStoreTiered creates a result-cache store over the given database,
// sharded by expression fingerprint (shards < 1 is treated as 1), with a RAM
// and a warm (disk) byte budget, each split evenly across shards. A zero
// warm budget disables the warm tier: eviction drops instead of demoting.
// The store's counters are registered on the default obs registry under
// mqo_resultcache_* (a newer store instance replaces an older one on the
// scrape).
func NewStoreTiered(db *storage.DB, model cost.Model, ramBytes, warmBytes int64, shards int) *Manager {
	if shards < 1 {
		shards = 1
	}
	reg := obs.Default()
	m := &Manager{
		Model:  model,
		db:     db,
		shards: make([]*cacheShard, shards),

		batches:    reg.RegisterCounter("mqo_resultcache_batches_total", "Batches committed against the result cache.", &obs.Counter{}),
		hitBatches: reg.RegisterCounter("mqo_resultcache_hit_batches_total", "Committed batches whose executed plan read at least one cache table.", &obs.Counter{}),
		hits:       reg.RegisterCounter("mqo_resultcache_hits_total", "Cache entry reads (one per entry per batch).", &obs.Counter{}),
		warmHits:   reg.RegisterCounter("mqo_resultcache_warm_hits_total", "Cache entry reads served from the warm (disk) tier.", &obs.Counter{}),
		admissions: reg.RegisterCounter("mqo_resultcache_admissions_total", "Entries admitted and spooled.", &obs.Counter{}),
		evictions:  reg.RegisterCounter("mqo_resultcache_evictions_total", "Entries evicted (spooled table dropped).", &obs.Counter{}),
		demotions:  reg.RegisterCounter("mqo_resultcache_demotions_total", "Entries demoted from RAM to the warm tier at eviction.", &obs.Counter{}),
		promotions: reg.RegisterCounter("mqo_resultcache_promotions_total", "Entries asynchronously promoted from the warm tier back to RAM.", &obs.Counter{}),
		bindHits:   reg.RegisterCounter("mqo_resultcache_binding_hits_total", "Per-binding cache entry reads (one per cached binding per batch).", &obs.Counter{}),
		bindPartialHits: reg.RegisterCounter("mqo_resultcache_binding_partial_hits_total",
			"Executed partial binding-cache hits (InvokePartial plan nodes).", &obs.Counter{}),
		bindResidual: reg.RegisterCounter("mqo_resultcache_binding_residual_total",
			"Residual bindings recomputed by executed partial hits.", &obs.Counter{}),
		bindAdmissions: reg.RegisterCounter("mqo_resultcache_binding_admissions_total",
			"Per-binding entries admitted and spooled.", &obs.Counter{}),
		savedCost:    reg.RegisterFloatCounter("mqo_resultcache_saved_cost_seconds_total", "Estimated cost-model seconds saved by cache hits.", &obs.FloatCounter{}),
		entriesG:     reg.RegisterGauge("mqo_resultcache_entries", "Entries currently in the store (pending included).", &obs.Gauge{}),
		usedG:        reg.RegisterGauge("mqo_resultcache_used_bytes", "Bytes of spooled results currently held in RAM.", &obs.Gauge{}),
		budgetG:      reg.RegisterGauge("mqo_resultcache_budget_bytes", "RAM byte budget for spooled results.", &obs.Gauge{}),
		warmEntriesG: reg.RegisterGauge("mqo_resultcache_warm_entries", "Entries currently in the warm (disk) tier.", &obs.Gauge{}),
		warmUsedG:    reg.RegisterGauge("mqo_resultcache_warm_used_bytes", "On-disk bytes of warm-tier spooled results.", &obs.Gauge{}),
		warmBudgetG:  reg.RegisterGauge("mqo_resultcache_warm_budget_bytes", "Warm-tier (disk) byte budget for spooled results.", &obs.Gauge{}),
		bindEntriesG: reg.RegisterGauge("mqo_resultcache_binding_entries", "Per-binding entries currently in the store (pending included).", &obs.Gauge{}),
		gen:          reg.RegisterGauge("mqo_resultcache_generation", "Ready-set generation.", &obs.Gauge{}),
	}
	for i := range m.shards {
		m.shards[i] = &cacheShard{index: map[string]map[entryID]*Entry{}, byTable: map[string]*Entry{}}
		label := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		m.shardUsedG = append(m.shardUsedG,
			reg.RegisterGauge("mqo_resultcache_shard_used_bytes", "Bytes of spooled results held per shard.", &obs.Gauge{}, label))
		m.shardEntriesG = append(m.shardEntriesG,
			reg.RegisterGauge("mqo_resultcache_shard_entries", "Entries per shard (pending included).", &obs.Gauge{}, label))
	}
	m.SetBudgets(ramBytes, warmBytes)
	return m
}

// NumShards reports the store's shard count.
func (m *Manager) NumShards() int { return len(m.shards) }

// shardFor hashes an expression fingerprint to its shard. Every property
// and binding of one expression lands on the same shard.
func (m *Manager) shardFor(fp string) int {
	if len(m.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(fp))
	return int(h.Sum32() % uint32(len(m.shards)))
}

// Budget returns the store's total RAM byte budget for spooled results.
func (m *Manager) Budget() int64 { return m.budgetG.Value() }

// WarmBudget returns the store's total warm-tier (disk) byte budget.
func (m *Manager) WarmBudget() int64 { return m.warmBudgetG.Value() }

// SetBudgets resizes both tiers, splitting each budget evenly across shards
// (remainder to the low shards) and immediately rebalancing: RAM overflow
// demotes or evicts, warm overflow drops warm entries and deletes their
// spill files.
func (m *Manager) SetBudgets(ramBytes, warmBytes int64) {
	totals := [2]int64{cost.TierRAM: max(ramBytes, 0), cost.TierWarm: max(warmBytes, 0)}
	m.budgetG.Set(totals[cost.TierRAM])
	m.warmBudgetG.Set(totals[cost.TierWarm])
	n := int64(len(m.shards))
	for i, s := range m.shards {
		s.mu.Lock()
		for tier, total := range totals {
			s.tiers[tier].budget = total / n
			if int64(i) < total%n {
				s.tiers[tier].budget++
			}
		}
		s.rebalanceLocked(m)
		s.publishLocked(m, i)
		s.mu.Unlock()
	}
}

// Entries returns a snapshot of the current cache contents, most valuable
// first (pending entries included).
func (m *Manager) Entries() []*Entry {
	var out []*Entry
	for _, s := range m.shards {
		s.mu.Lock()
		for _, e := range s.byTable {
			cp := *e
			out = append(out, &cp)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].density() != out[j].density() {
			return out[i].density() > out[j].density()
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// UsedBytes reports the occupied RAM-tier cache space across all shards.
func (m *Manager) UsedBytes() int64 { return m.Stats().UsedBytes }

// WarmUsedBytes reports the occupied warm-tier (on-disk) cache space.
func (m *Manager) WarmUsedBytes() int64 { return m.Stats().WarmUsedBytes }

// Generation reports the ready-set generation (see Stats.Generation). A nil
// store never changes: it stays at generation 0.
func (m *Manager) Generation() int64 {
	if m == nil {
		return 0
	}
	return m.gen.Value()
}

// PerShard snapshots each shard's structure, one shard lock at a time.
// Summing UsedBytes over shards always equals Stats().UsedBytes.
func (m *Manager) PerShard() []ShardStats {
	out := make([]ShardStats, len(m.shards))
	for i, s := range m.shards {
		out[i] = s.snapshot(i).ShardStats
	}
	return out
}

// Stats snapshots the accounting: store structure summed over the shard
// snapshots, event counts straight from the registry-backed atomics.
func (m *Manager) Stats() Stats {
	st := Stats{
		BudgetBytes:     m.Budget(),
		WarmBudgetBytes: m.WarmBudget(),
		Batches:         m.batches.Value(),
		HitBatches:      m.hitBatches.Value(),
		Hits:            m.hits.Value(),
		WarmHits:        m.warmHits.Value(),
		Admissions:      m.admissions.Value(),
		Evictions:       m.evictions.Value(),
		Demotions:       m.demotions.Value(),
		Promotions:      m.promotions.Value(),

		BindingHits:        m.bindHits.Value(),
		BindingPartialHits: m.bindPartialHits.Value(),
		BindingResidual:    m.bindResidual.Value(),
		BindingAdmissions:  m.bindAdmissions.Value(),

		SavedCostEst: m.savedCost.Value(),
		Generation:   m.gen.Value(),
	}
	for i, s := range m.shards {
		sn := s.snapshot(i)
		st.Entries += sn.Entries
		st.UsedBytes += sn.UsedBytes
		st.WarmEntries += sn.WarmEntries
		st.WarmUsedBytes += sn.WarmUsedBytes
		st.BindingEntries += sn.bound
	}
	return st
}

// String summarizes the cache state.
func (m *Manager) String() string {
	st := m.Stats()
	return fmt.Sprintf("resultcache: %d entries, %d/%d bytes, gen %d",
		st.Entries, st.UsedBytes, st.BudgetBytes, st.Generation)
}
