package cache

import (
	"sync"
	"testing"

	"mqo/internal/cost"
)

// TestPinnedEntryNeverEvictedAcrossShards is the shard-boundary eviction
// regression: while one goroutine replays a batch whose plan reads spooled
// cache tables (pinning them between Arm and Commit), another goroutine
// thrashes the budget between "evict everything" and "plenty", forcing the
// eviction scan through every shard over and over. A victim scan that
// forgot the pin check — or raced the pin across the shard boundary —
// drops a table an executing plan is scanning, and the replay fails with a
// missing-table error. Run under -race in CI.
func TestPinnedEntryNeverEvictedAcrossShards(t *testing.T) {
	db, cat := makeWorld(t)
	model := cost.DefaultModel()
	m := newTestStore(t, db, model, 64<<20, 0, 4)

	// Two overlapping queries spread entries over multiple shards
	// (fingerprints hash independently).
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
			if i%2 == 0 {
				m.SetBudgets(1, 0) // evicts every unpinned entry, shard by shard
			} else {
				m.SetBudgets(64<<20, 0)
			}
		}
	}()

	// Replay on the main goroutine: any eviction of a pinned table turns
	// into an execution error inside runBatch (missing cache table).
	for i := 0; i < 12; i++ {
		runBatch(t, m, db, cat, q1, q2)
	}
	close(stop)
	wg.Wait()

	// On a single-CPU host the churn goroutine may only ever be scheduled
	// while the replay holds its pins (nothing evictable), leaving the
	// eviction counter at zero; one final shrink from the main goroutine,
	// with every pin released, guarantees the eviction path executed.
	m.SetBudgets(1, 0)
	m.SetBudgets(64<<20, 0)

	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatal("budget churn never evicted; the race was not exercised")
	}
	var used, entries int64
	for _, s := range m.PerShard() {
		used += s.UsedBytes
		entries += int64(s.Entries)
	}
	if used != st.UsedBytes || entries != int64(st.Entries) {
		t.Errorf("per-shard sums (%d bytes, %d entries) != aggregate (%d, %d)",
			used, entries, st.UsedBytes, st.Entries)
	}
}
