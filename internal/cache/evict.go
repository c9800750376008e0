package cache

import (
	"sort"

	"mqo/internal/cost"
	"mqo/internal/storage"
)

// insertLocked files a new entry in the index, byTable and its tier's
// accounting; mu is held.
func (m *Manager) insertLocked(e *Entry) {
	if m.index[e.Key] == nil {
		m.index[e.Key] = map[entryID]*Entry{}
	}
	m.index[e.Key][e.id] = e
	m.byTable[e.Table] = e
	m.fileLocked(e, +1)
}

// fileLocked adds (sign +1) or removes (sign -1) an entry's footprint in its
// tier's accounting and the binding count.
func (m *Manager) fileLocked(e *Entry, sign int) {
	ts := &m.tiers[e.Tier]
	ts.used += int64(sign) * e.Bytes
	ts.entries += sign
	if e.Bind != "" {
		m.bound += sign
	}
}

// refileLocked moves an entry's accounting to a new tier and size.
func (m *Manager) refileLocked(e *Entry, tier cost.Tier, bytes int64) {
	m.fileLocked(e, -1)
	e.Tier, e.Bytes = tier, bytes
	m.fileLocked(e, +1)
}

// dropEntryLocked removes an entry and its spooled table from whichever
// tier holds it (plus any stale warm copy); mu is held.
func (m *Manager) dropEntryLocked(e *Entry) {
	delete(m.index[e.Key], e.id)
	if len(m.index[e.Key]) == 0 {
		delete(m.index, e.Key)
	}
	delete(m.byTable, e.Table)
	m.fileLocked(e, -1)
	if e.Tier == cost.TierRAM {
		m.db.DropCache(e.Table)
	}
	if e.Tier == cost.TierWarm || e.staleWarm {
		e.staleWarm = false
		m.db.DropWarm(e.Table)
	}
}

// unpinLocked releases one pin; at zero pins any deferred warm-copy
// cleanup (a promotion that finished while readers were still scanning the
// disk copy) completes. mu is held.
func (m *Manager) unpinLocked(e *Entry) {
	e.pins--
	if e.pins == 0 && e.staleWarm {
		e.staleWarm = false
		m.db.DropWarm(e.Table)
	}
}

// makeRoomLocked is the store's one room-maker: it evicts ready, unpinned
// entries of the given tier with density below the incoming result's until
// bytes fit in that tier's budget. It reports false — having evicted
// nothing — when the result is larger than the whole budget, not worth the
// evictions, or pinned entries hold the space. Evicting from RAM demotes
// where the victim earns warm space, which makes room in the warm tier
// through this same function.
func (m *Manager) makeRoomLocked(tier cost.Tier, bytes int64, density float64) bool {
	ts := &m.tiers[tier]
	if bytes > ts.budget {
		return false
	}
	need := ts.used + bytes - ts.budget // bytes still to free
	var plan []*Entry
	if need > 0 {
		for _, v := range m.victimsLocked(tier) {
			if v.density() >= density {
				return false // would evict something more valuable
			}
			plan = append(plan, v)
			if need -= v.Bytes; need <= 0 {
				break
			}
		}
	}
	if need > 0 {
		return false
	}
	for _, v := range plan {
		m.evictLocked(v)
	}
	return true
}

// rebalanceLocked evicts lowest-density unpinned entries while the store
// is over either tier's budget (real sizes can overshoot the admission
// estimates); it reports whether anything was evicted or moved. A tier
// within its budget is not looked at, so a commit that evicts nothing
// costs nothing per stored entry. RAM eviction demotes into the warm tier
// when the entry earns the space, so the warm tier is checked second and
// mops up any resulting overflow. Pinned entries may hold the store over
// budget transiently — the next Commit/Abort rebalances again.
func (m *Manager) rebalanceLocked() bool {
	evicted := false
	for _, tier := range []cost.Tier{cost.TierRAM, cost.TierWarm} {
		ts := &m.tiers[tier]
		if ts.used <= ts.budget {
			continue
		}
		for _, v := range m.victimsLocked(tier) {
			if ts.used <= ts.budget {
				break
			}
			m.evictLocked(v)
			evicted = true
		}
	}
	return evicted
}

// victimsLocked lists the store's evictable entries of one tier, lowest
// density first (LRU breaks ties).
func (m *Manager) victimsLocked(tier cost.Tier) []*Entry {
	var out []*Entry
	for _, e := range m.byTable {
		if e.ready && e.pins == 0 && e.Tier == tier {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].density(), out[j].density()
		if di != dj {
			return di < dj
		}
		if out[i].LastUsed != out[j].LastUsed {
			return out[i].LastUsed < out[j].LastUsed
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// evictLocked removes a victim from its tier: a RAM entry valuable enough
// to earn warm space is demoted (its rows spill to a disk heap file)
// instead of being destroyed; everything else is dropped for real.
func (m *Manager) evictLocked(e *Entry) {
	if e.Tier == cost.TierRAM && m.demoteLocked(e) {
		return
	}
	m.dropEntryLocked(e)
	m.evictions.Inc()
	m.gen.Add(1)
}

// demoteLocked spills a RAM victim to the warm tier: lower-density warm
// entries are dropped to make room first, and the demotion is refused (the
// caller then drops the entry) when the warm budget cannot hold it or only
// denser warm entries occupy it. On success the entry's accounting moves
// to real on-disk bytes, at least one page as in RAM: an empty result filed
// at nothing would never put its tier over budget, so no rebalance would ever
// evict it. mu is held across the row copy — demotion happens inside
// Commit's rebalance, off every request's critical path.
func (m *Manager) demoteLocked(e *Entry) bool {
	if e.staleWarm || !m.makeRoomLocked(cost.TierWarm, e.Bytes, e.density()) {
		return false
	}
	diskBytes, err := m.db.DemoteCache(e.Table)
	if err != nil {
		return false
	}
	m.refileLocked(e, cost.TierWarm, max(diskBytes, storage.PageSize))
	m.demotions.Inc()
	m.gen.Add(1)
	return true
}

// promote copies a warm entry's rows back into a RAM-tier cache table and
// swaps the entry's tier, asynchronously after the committing batch
// already returned. The entry is pinned (by Commit) for the whole copy, so
// neither tier's table can be dropped underneath it; the row copy runs
// outside mu (the promoting flag single-flights it), and only the
// accounting swap holds the lock. The warm file is deleted at the last
// unpin — an in-flight reader of the disk copy finishes undisturbed.
func (m *Manager) promote(e *Entry) {
	defer m.promWG.Done()
	ramBytes, err := m.db.PromoteWarm(e.Table)
	ramBytes = max(ramBytes, storage.PageSize)
	m.mu.Lock()
	e.promoting = false
	promoted := err == nil && m.byTable[e.Table] == e && e.Tier == cost.TierWarm &&
		m.makeRoomLocked(cost.TierRAM, ramBytes, e.density())
	if promoted {
		m.refileLocked(e, cost.TierRAM, ramBytes)
		e.staleWarm = true // disk copy lingers until the last pin drops
		m.promotions.Inc()
		m.gen.Add(1)
	}
	m.unpinLocked(e)
	m.publishLocked()
	m.mu.Unlock()
	if !promoted && err == nil {
		// The copy exists but was not adopted (no RAM room, or the entry
		// was dropped meanwhile): discard it, the warm copy stays truth.
		m.db.DropCache(e.Table)
	}
}

// WaitPromotions blocks until every scheduled async promotion has settled.
// Promotion is fire-and-forget on the serving path; tests and benchmarks
// use this to observe a deterministic post-promotion state.
func (m *Manager) WaitPromotions() { m.promWG.Wait() }

// Close drains in-flight promotions, drops every entry in both tiers
// (deleting all warm spill files) and removes the warm directory. Callers
// must have quiesced batches first: pinned entries are dropped regardless,
// and a concurrently executing plan would lose its tables.
func (m *Manager) Close() {
	m.promWG.Wait()
	m.mu.Lock()
	for _, e := range m.byTable {
		m.dropEntryLocked(e)
	}
	m.publishLocked()
	m.mu.Unlock()
	m.db.CloseWarm()
	m.gen.Add(1)
}
