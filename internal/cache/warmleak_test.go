package cache

import (
	"context"
	"os"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/storage"
)

// TestWarmFilesNeverLeak pins down the warm tier's on-disk life cycle: a
// demoted entry's heap file exists exactly as long as its cache entry.
// Files must disappear on warm-tier eviction (budget shrink), on promotion
// back to RAM (the stale warm backup, once the last pin drops), and Close
// must leave nothing — not even the spill directory — behind.
func TestWarmFilesNeverLeak(t *testing.T) {
	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 64<<20, 64<<20)
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

// TestEmptyWarmEntryIsEvictable: a result that executed to zero rows is
// charged one page in RAM, and still one page once demoted — on disk it
// occupies nothing, but an entry filed at zero bytes never puts its tier over
// budget, so no rebalance would ever visit it. With both budgets at zero the
// store must hold nothing, on either tier or on disk.
func TestEmptyWarmEntryIsEvictable(t *testing.T) {
	db, cat := makeWorld(t)
	model := cost.DefaultModel()
	m := newTestStore(t, db, model, 64<<20, 64<<20)
	pd, err := core.BuildDAG(cat, model, []*algebra.Tree{chain([]string{"R", "S"}, 90)})
	if err != nil {
		t.Fatal(err)
	}
	ticket := m.Arm(pd, nil)
	res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spools := ticket.PlanSpools(res.Plan)
	if len(spools) == 0 {
		t.Fatal("nothing admitted")
	}
	for n, name := range spools { // executed, and came out empty
		db.CreateCache(name, n.LG.Schema)
	}
	ticket.Commit()

	m.SetBudgets(1, 64<<20)
	st := m.Stats()
	if st.Demotions == 0 || st.WarmEntries != len(spools) {
		t.Fatalf("RAM shrink did not demote the empty entries: %+v", st)
	}
	for _, e := range m.Entries() {
		if e.Bytes != storage.PageSize {
			t.Errorf("demoted entry %s accounted %d bytes, want one page (%d)", e.Table, e.Bytes, storage.PageSize)
		}
	}
	dir, err := db.WarmDir()
	if err != nil {
		t.Fatal(err)
	}

	m.SetBudgets(0, 0)
	if st := m.Stats(); st.Entries != 0 || st.WarmEntries != 0 || st.WarmUsedBytes != 0 {
		t.Errorf("entries survive budgets of nothing: %+v", st)
	}
	if n := db.NumWarm(); n != 0 {
		t.Errorf("%d warm tables survive budgets of nothing", n)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("warm dir holds %d files after budgets of nothing (%v)", len(ents), err)
	}
}
