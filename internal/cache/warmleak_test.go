package cache

import (
	"os"
	"testing"

	"mqo/internal/cost"
)

// TestWarmFilesNeverLeak pins down the warm tier's on-disk life cycle: a
// demoted entry's heap file exists exactly as long as its cache entry.
// Files must disappear on warm-tier eviction (budget shrink), on promotion
// back to RAM (the stale warm backup, once the last pin drops), and Close
// must leave nothing — not even the spill directory — behind.
func TestWarmFilesNeverLeak(t *testing.T) {
	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 64<<20, 64<<20, 2)
	q1 := chain([]string{"R", "S", "T"}, 90)
	q2 := chain([]string{"R", "S", "P"}, 90)
	if _, _, _, spools := runBatch(t, m, db, cat, q1, q2); spools == 0 {
		t.Fatal("seed batch admitted nothing")
	}

	countFiles := func(dir string) int {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading warm dir: %v", err)
		}
		return len(ents)
	}

	// Demotion materializes one file per warm entry.
	m.SetBudgets(1, 64<<20)
	dir, err := db.WarmDir()
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Demotions == 0 || st.WarmEntries == 0 {
		t.Fatalf("RAM shrink did not demote: %+v", st)
	}
	if got := countFiles(dir); got != st.WarmEntries {
		t.Fatalf("%d warm files for %d warm entries", got, st.WarmEntries)
	}

	// Warm-tier budget shrink evicts the entries and their files together.
	m.SetBudgets(1, 1)
	if got := countFiles(dir); got != 0 {
		t.Errorf("warm shrink leaked %d files in %s", got, dir)
	}
	if st := m.Stats(); st.WarmEntries != 0 || st.WarmUsedBytes != 0 {
		t.Errorf("warm accounting nonzero after shrink: %+v", st)
	}

	// Promotion: respool, demote everything, then hit the warm entries so
	// they promote back to RAM. Once the promotions drain and the pins are
	// released, the stale warm backups' files must be gone too — only
	// still-warm entries may keep files.
	m.SetBudgets(64<<20, 64<<20)
	runBatch(t, m, db, cat, q1, q2)
	m.SetBudgets(1, 64<<20)
	m.SetBudgets(64<<20, 64<<20)
	runBatch(t, m, db, cat, q1, q2)
	m.WaitPromotions()
	st = m.Stats()
	if st.Promotions == 0 {
		t.Fatalf("warm hits scheduled no promotions: %+v", st)
	}
	if got := countFiles(dir); got != st.WarmEntries {
		t.Errorf("%d warm files for %d warm entries after promotion (stale backup leaked?)", got, st.WarmEntries)
	}

	// Close drops every entry in both tiers and removes the directory.
	m.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("warm dir %s survived Close (err=%v)", dir, err)
	}
	if n := db.NumWarm(); n != 0 {
		t.Errorf("%d warm tables survived Close", n)
	}
	if n := db.NumCaches(); n != 0 {
		t.Errorf("%d RAM cache tables survived Close", n)
	}
}
