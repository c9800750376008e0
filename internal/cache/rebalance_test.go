package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/physical"
	"mqo/internal/storage"
)

// fileEntry files a ready, unpinned entry over a new cache table of the
// given rows, as a committed admission leaves one; a warm entry's table is
// demoted to its spill file first. The entry is charged bytes whatever its
// table holds, as an estimate may undershoot the rows a demotion writes.
func fileEntry(t *testing.T, m *Manager, db *storage.DB, table string, tier cost.Tier,
	bytes int64, density float64, lastUsed int64, rows int) *Entry {
	t.Helper()
	tab := db.CreateCache(table, algebra.Schema{{Col: algebra.Col(table, "v"), Typ: algebra.TInt}})
	for i := 0; i < rows; i++ {
		if _, err := tab.Heap.Insert(storage.Row{algebra.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if tier == cost.TierWarm {
		if _, err := db.DemoteCache(table); err != nil {
			t.Fatal(err)
		}
	}
	value := density * float64(bytes)
	e := &Entry{Key: "fp:" + table, Table: table, Bytes: bytes, Value: value, LastUsed: lastUsed, Tier: tier,
		id: entryID{physical.Prop{}.Key(), ""}, admitValue: value, ready: true}
	m.mu.Lock()
	m.insertLocked(e)
	m.publishLocked()
	m.mu.Unlock()
	return e
}

// victimOrder is the eviction order the store promises: lowest density
// first, then least recently used, then by table name.
func victimOrder(a, b *Entry) int {
	return cmp.Or(cmp.Compare(a.density(), b.density()), cmp.Compare(a.LastUsed, b.LastUsed),
		cmp.Compare(a.Table, b.Table))
}

// TestHitCommitDoesNotGrowWithStore: pinning and committing a stored plan
// that reads one entry allocates the same in a store of one ready entry as
// in a store of 500, both within budget. A commit that evicts nothing must
// not list or sort the store's entries.
func TestHitCommitDoesNotGrowWithStore(t *testing.T) {
	allocs := func(entries int) float64 {
		db, cat := makeWorld(t)
		m := newTestStore(t, db, cost.DefaultModel(), 64<<20, 64<<20)
		q := []*algebra.Tree{chain([]string{"R", "S"}, 90)}
		runTicket(t, m, db, cat, q, nil)
		_, _, plan, _ := runTicket(t, m, db, cat, q, nil)
		if st := m.Stats(); st.Entries != 1 || st.Hits != 1 {
			t.Fatalf("the repeat did not read the one stored entry: %+v\nplan:\n%s", st, plan)
		}
		for i := 1; i < entries; i++ {
			fileEntry(t, m, db, fmt.Sprintf("fill%03d", i), cost.TierRAM, storage.PageSize, 1, 0, 0)
		}
		if st := m.Stats(); st.Entries != entries || st.UsedBytes > st.BudgetBytes {
			t.Fatalf("filled store holds %d entries, want %d within budget: %+v", st.Entries, entries, st)
		}
		return testing.AllocsPerRun(20, func() {
			ticket, ok := m.PinPlan(plan)
			if !ok {
				t.Fatal("the stored plan no longer pins")
			}
			if ticket.Commit() != 1 {
				t.Fatal("the stored plan's commit counted no hit")
			}
		})
	}
	small, large := allocs(1), allocs(500)
	if small != large {
		t.Errorf("a hit's PinPlan+Commit allocates %v times over 1 entry, %v over 500", small, large)
	}
}

// TestRebalanceOrder: a store put over budget still evicts lowest density
// first, then least recently used, then by table name — densities and use
// stamps are drawn from small sets so every tie-break is exercised — and
// RAM demotes before warm drops: demotions whose real spill size overshoots
// the room they were given leave the warm tier over budget, and the warm
// tier, checked second, drops its own victims in the same order until it
// fits.
func TestRebalanceOrder(t *testing.T) {
	const page = storage.PageSize
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			// RAM only: a victim with no warm tier is dropped, so the
			// survivors are what is left of the order once the rest fits.
			db := storage.NewDB(256)
			m := newTestStore(t, db, cost.DefaultModel(), 1<<30, 0)
			var all []*Entry
			var used int64
			for _, i := range rng.Perm(20 + rng.Intn(30)) {
				e := fileEntry(t, m, db, fmt.Sprintf("r%02d", i), cost.TierRAM,
					page*int64(1+rng.Intn(3)), float64(1+rng.Intn(3)), rng.Int63n(3), 0)
				all, used = append(all, e), used+e.Bytes
			}
			budget := rng.Int63n(used)
			slices.SortFunc(all, victimOrder)
			var want []string
			for _, e := range all {
				if used > budget {
					used -= e.Bytes
					continue
				}
				want = append(want, e.Table)
			}
			slices.Sort(want)
			m.SetBudgets(budget, 0)
			if got := tables(m, cost.TierRAM); !slices.Equal(got, want) {
				t.Errorf("RAM budget %d kept %v, want %v", budget, got, want)
			}

			// Both tiers: the warm tier starts full of entries less dense than
			// any RAM entry, and RAM shrinks to nothing.
			db = storage.NewDB(256)
			t.Cleanup(func() { db.CloseWarm() })
			m = newTestStore(t, db, cost.DefaultModel(), 1<<30, 1<<30)
			var warm []*Entry
			var warmUsed int64
			for _, i := range rng.Perm(4 + rng.Intn(6)) {
				e := fileEntry(t, m, db, fmt.Sprintf("w%d", i), cost.TierWarm,
					page, float64(1+rng.Intn(3)), rng.Int63n(3), 0)
				warm, warmUsed = append(warm, e), warmUsed+e.Bytes
			}
			ram := map[string]bool{}
			for i := range 1 + rng.Intn(3) {
				e := fileEntry(t, m, db, fmt.Sprintf("d%d", i), cost.TierRAM,
					page, float64(100+10*rng.Intn(3)), rng.Int63n(3), 400+rng.Intn(600))
				ram[e.Table] = true
			}
			m.SetBudgets(0, warmUsed)
			st := m.Stats()
			if st.Entries != st.WarmEntries || st.WarmUsedBytes > st.WarmBudgetBytes {
				t.Fatalf("RAM budget 0, warm budget %d left %+v", warmUsed, st)
			}
			if st.Demotions == 0 {
				t.Fatalf("no RAM entry was demoted into warm room its lower-density entries held: %+v", st)
			}
			overshot := false
			for _, e := range m.Entries() {
				overshot = overshot || ram[e.Table] && e.Bytes > page
			}
			if !overshot {
				t.Fatalf("no demoted entry kept its real spill size over its one-page estimate: %+v", st)
			}
			// The warm entries went in victim order: the dropped ones are a
			// prefix of it, whether making room for a demotion or after.
			slices.SortFunc(warm, victimOrder)
			kept := map[string]bool{}
			for _, name := range tables(m, cost.TierWarm) {
				kept[name] = true
			}
			for i := 1; i < len(warm); i++ {
				if kept[warm[i-1].Table] && !kept[warm[i].Table] {
					t.Errorf("warm %s (density %v, used %d) dropped while %s (density %v, used %d) kept",
						warm[i].Table, warm[i].density(), warm[i].LastUsed,
						warm[i-1].Table, warm[i-1].density(), warm[i-1].LastUsed)
				}
			}
		})
	}
}

// tables lists the store's entries in a tier, by name.
func tables(m *Manager, tier cost.Tier) []string {
	var out []string
	for _, e := range m.Entries() {
		if e.Tier == tier {
			out = append(out, e.Table)
		}
	}
	slices.Sort(out)
	return out
}
