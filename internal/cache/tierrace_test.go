package cache

import (
	"sync"
	"testing"

	"mqo/internal/cost"
)

// TestTierTriangleRaceAtShardBoundary exercises the demote → warm-hit →
// promote → evict triangle under concurrency, across shard boundaries:
// while the main goroutine replays batches whose plans read cached tables
// (pinning them between Arm and Commit, and scheduling async promotions on
// warm hits), a churn goroutine cycles the two budgets through "demote all
// RAM to warm", "evict the warm tier" and "plenty everywhere". A pinned
// entry losing its backing table in either tier — a demotion swapping the
// table out from under a reader, a warm eviction racing a promotion's row
// copy, or a promotion adopting an entry another shard just dropped —
// surfaces as a missing-table execution error inside runBatch. Run under
// -race in CI.
func TestTierTriangleRaceAtShardBoundary(t *testing.T) {
	db, cat := makeWorld(t)
	model := cost.DefaultModel()
	m := newTestStore(t, db, model, 64<<20, 64<<20, 4)

	// Two overlapping queries spread entries over multiple shards.
	q1 := chain([]string{"R", "S", "T"}, 90)
	q2 := chain([]string{"R", "S", "P"}, 90)
	if _, _, _, spools := runBatch(t, m, db, cat, q1, q2); spools == 0 {
		t.Fatal("seed batch admitted nothing; the race would be vacuous")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				m.SetBudgets(1, 64<<20) // demote every unpinned RAM entry
			case 1:
				m.SetBudgets(64<<20, 1) // evict the warm tier
			default:
				m.SetBudgets(64<<20, 64<<20)
			}
		}
	}()

	for i := 0; i < 12; i++ {
		runBatch(t, m, db, cat, q1, q2)
	}
	close(stop)
	wg.Wait()
	m.WaitPromotions()

	// On a single-CPU host the churn goroutine may only ever run while the
	// replay holds its pins, so the concurrent phase can pass without the
	// triangle firing; one deterministic demote → warm-hit → promote cycle
	// from the main goroutine guarantees every edge executed. The churn may
	// have stopped right after evicting a warm tier that held everything,
	// so first put entries back in RAM: under ample budgets a batch admits
	// what is missing and promotes what is warm.
	m.SetBudgets(64<<20, 64<<20)
	runBatch(t, m, db, cat, q1, q2)
	m.WaitPromotions()
	m.SetBudgets(1, 64<<20)
	m.SetBudgets(64<<20, 64<<20)
	runBatch(t, m, db, cat, q1, q2)
	m.WaitPromotions()

	st := m.Stats()
	if st.Demotions == 0 {
		t.Error("budget churn never demoted; the triangle was not exercised")
	}
	if st.WarmHits == 0 {
		t.Error("no batch ever hit a warm entry")
	}
	if st.Promotions == 0 {
		t.Error("warm hits scheduled no promotions")
	}

	// Settled-state invariants: the aggregate accounting equals the
	// per-shard sums, and every surviving entry still has its backing table
	// in exactly the tier the accounting says it is in.
	var used, warmUsed, entries, warmEntries int64
	for _, s := range m.PerShard() {
		used += s.UsedBytes
		warmUsed += s.WarmUsedBytes
		entries += int64(s.Entries)
		warmEntries += int64(s.WarmEntries)
	}
	if used != st.UsedBytes || warmUsed != st.WarmUsedBytes ||
		entries != int64(st.Entries) || warmEntries != int64(st.WarmEntries) {
		t.Errorf("per-shard sums (ram %d/%d warm %d/%d) != aggregate (ram %d/%d warm %d/%d)",
			used, entries, warmUsed, warmEntries,
			st.UsedBytes, st.Entries, st.WarmUsedBytes, st.WarmEntries)
	}
	for _, e := range m.Entries() {
		if e.Tier == cost.TierWarm {
			if _, err := db.Warm(e.Table); err != nil {
				t.Errorf("warm entry %s lost its backing table: %v", e.Table, err)
			}
		} else if _, err := db.Cache(e.Table); err != nil {
			t.Errorf("RAM entry %s lost its backing table: %v", e.Table, err)
		}
	}
}
