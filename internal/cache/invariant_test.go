package cache

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/physical"
	"mqo/internal/storage"
)

// newTestStore creates a store whose invariants are checked when the test
// ends, whatever state the test left it in.
func newTestStore(t *testing.T, db *storage.DB, model cost.Model, ramBytes, warmBytes int64, shards int) *Manager {
	t.Helper()
	m := NewStoreTiered(db, model, ramBytes, warmBytes, shards)
	t.Cleanup(func() { checkInvariants(t, m) })
	return m
}

// checkStructure asserts what must hold at every instant, open tickets and
// in-flight promotions included. Per shard: the bytes of the RAM-tier
// (pending included) and warm-tier entries sum to the shard's accounting,
// and the fingerprint index and byTable hold exactly the same entries, each
// filed under its own identity in the shard its fingerprint hashes to.
// Against storage: every ready entry's table exists in the entry's tier,
// and no cache table or warm file exists without an entry that owns it.
func checkStructure(t *testing.T, m *Manager) {
	t.Helper()
	// Promotions copy rows outside any shard lock; the lock-ordered sweep
	// below (all shards held, index order — nothing else ever holds two)
	// gives one consistent cut through the entry set.
	for _, s := range m.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range m.shards {
			s.mu.Unlock()
		}
	}()
	ramOwner, warmOwner := map[string]bool{}, map[string]bool{}
	for si, s := range m.shards {
		var ram, warm int64
		indexed := 0
		for fp, byID := range s.index {
			if len(byID) == 0 {
				t.Errorf("shard %d: empty index bucket for %q", si, fp)
			}
			for id, e := range byID {
				indexed++
				if e.Key != fp || e.id != id || id != (entryID{e.Prop.Key(), e.Bind}) {
					t.Errorf("shard %d: entry %s filed under (%q, %+v)", si, e.Table, fp, id)
				}
				if s.byTable[e.Table] != e {
					t.Errorf("shard %d: indexed entry %s missing from byTable", si, e.Table)
				}
			}
		}
		if indexed != len(s.byTable) {
			t.Errorf("shard %d: index holds %d entries, byTable %d", si, indexed, len(s.byTable))
		}
		for table, e := range s.byTable {
			if e.Table != table || e.si != si || m.shardFor(e.Key) != si {
				t.Errorf("shard %d: entry %s (si %d) misfiled under table %q", si, e.Table, e.si, table)
			}
			if e.Tier == cost.TierWarm {
				warm += e.Bytes
				warmOwner[table] = true
			} else {
				ram += e.Bytes
				ramOwner[table] = true
				if e.staleWarm {
					warmOwner[table] = true
				}
			}
			if e.promoting {
				ramOwner[table] = true // the copy exists before it is adopted
			}
			if !e.ready {
				continue
			}
			if _, err := m.db.Cache(table); e.Tier == cost.TierRAM && err != nil {
				t.Errorf("ready RAM entry %s has no cache table", table)
			}
			if _, err := m.db.Warm(table); e.Tier == cost.TierWarm && err != nil {
				t.Errorf("ready warm entry %s has no warm file", table)
			}
		}
		if ram != s.tiers[cost.TierRAM].used || warm != s.tiers[cost.TierWarm].used {
			t.Errorf("shard %d: entries sum to %d RAM / %d warm bytes, accounting says %d / %d",
				si, ram, warm, s.tiers[cost.TierRAM].used, s.tiers[cost.TierWarm].used)
		}
	}
	for _, name := range m.db.CacheNames() {
		if !ramOwner[name] {
			t.Errorf("orphan cache table %s", name)
		}
	}
	for _, name := range m.db.WarmNames() {
		if !warmOwner[name] {
			t.Errorf("orphan warm file %s", name)
		}
	}
}

// checkInvariants is checkStructure plus what must hold at quiescence — no
// open ticket, promotions drained: no pins, no pending claims, no promotion
// flags, no stale warm copies, and storage holds exactly one table per
// entry, in the entry's tier.
func checkInvariants(t *testing.T, m *Manager) {
	t.Helper()
	m.WaitPromotions()
	checkStructure(t, m)
	var ram, warm []string
	for _, s := range m.shards {
		s.mu.Lock()
		for table, e := range s.byTable {
			if e.pins != 0 || !e.ready || e.promoting || e.staleWarm {
				t.Errorf("entry %s not quiescent: pins=%d ready=%v promoting=%v staleWarm=%v",
					table, e.pins, e.ready, e.promoting, e.staleWarm)
			}
			if e.Tier == cost.TierWarm {
				warm = append(warm, table)
			} else {
				ram = append(ram, table)
			}
		}
		s.mu.Unlock()
	}
	gotRAM, gotWarm := m.db.CacheNames(), m.db.WarmNames()
	for _, names := range [][]string{ram, warm, gotRAM, gotWarm} {
		sort.Strings(names)
	}
	if fmt.Sprint(ram) != fmt.Sprint(gotRAM) {
		t.Errorf("RAM entries %v, cache tables %v", ram, gotRAM)
	}
	if fmt.Sprint(warm) != fmt.Sprint(gotWarm) {
		t.Errorf("warm entries %v, warm files %v", warm, gotWarm)
	}
}

// liveBatch is one batch somewhere between Arm and Commit/Abort.
type liveBatch struct {
	queries []*algebra.Tree
	sets    []map[string]algebra.Value
	ticket  *Ticket
	plan    *physical.Plan
	spools  map[*physical.Node]string
	planned bool
}

// TestRandomTicketSequences drives seeded random interleavings of the
// ticket life cycle — arm, plan-spools, execute+commit, abort (before or
// after executing), plan-cache-style PinPlan, budget resizes that shrink,
// grow and switch the warm tier on and off, promotion drains — over
// whole-expression and parameterized batches, with up to three tickets open
// at once. The structural invariants are checked after every step, the
// quiescent ones whenever no ticket is open, and every executed batch's rows
// against the naive reference evaluator.
func TestRandomTicketSequences(t *testing.T) {
	const page = storage.PageSize
	budgets := [][2]int64{
		{64 * page, 64 * page}, {6 * page, 64 * page}, {1, 64 * page}, {6 * page, 3 * page},
		{64 * page, 0}, {3 * page, 0}, {0, 0}, {64 * page, 1},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, cat := makeWorldRows(t, 400)
			model := cost.DefaultModel()
			m := newTestStore(t, db, model, 64*page, 64*page, shards)
			rng := rand.New(rand.NewSource(int64(12 + shards)))
			pool := []*algebra.Tree{
				chain([]string{"R", "S"}, 90), chain([]string{"S", "T"}, 90),
				chain([]string{"R", "S", "T"}, 90), chain([]string{"R", "S", "P"}, 90),
				chain([]string{"T", "P"}, 80),
			}
			var open []*liveBatch
			var lastPlan *liveBatch // a committed batch whose plan PinPlan may replay
			take := func() *liveBatch {
				i := rng.Intn(len(open))
				b := open[i]
				open = append(open[:i], open[i+1:]...)
				return b
			}
			plan := func(b *liveBatch) {
				if !b.planned {
					b.spools, b.planned = b.ticket.PlanSpools(b.plan), true
				}
			}
			execute := func(b *liveBatch) {
				plan(b)
				results, _, err := exec.Run(context.Background(), db, model, b.plan, &exec.Env{
					ParamSets: b.sets,
					Cache:     &exec.CacheIO{Spools: b.spools, BindSpools: b.ticket.BindingSpools()}})
				if err != nil {
					t.Fatalf("run: %v\nplan:\n%s", err, b.plan)
				}
				for i, q := range b.queries {
					rows, schema, err := exec.Reference(db, q, &exec.Env{ParamSets: b.sets})
					if err != nil {
						t.Fatal(err)
					}
					if !exec.EqualRows(results[i], exec.QueryResult{Schema: schema, Rows: rows}, 1e-9) {
						t.Fatalf("query %d rows diverge from the reference\ngot:  %v\nwant: %v\nplan:\n%s", i, results[i].Rows, rows, b.plan)
					}
				}
			}

			for step := 0; step < 240; step++ {
				switch op := rng.Intn(12); {
				case op < 4 && len(open) < 3: // arm
					b := &liveBatch{}
					if rng.Intn(5) < 2 {
						b.queries = []*algebra.Tree{paramQuery(4)}
						for _, i := range rng.Perm(8)[:2+rng.Intn(3)] {
							b.sets = append(b.sets, windowSets(int64(1+50*i))...)
						}
					} else {
						for _, i := range rng.Perm(len(pool))[:1+rng.Intn(2)] {
							b.queries = append(b.queries, pool[i])
						}
					}
					pd, err := core.BuildDAG(cat, model, b.queries)
					if err != nil {
						t.Fatal(err)
					}
					b.ticket = m.Arm(pd, b.sets)
					res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					b.plan = res.Plan
					open = append(open, b)
				case op == 4 && lastPlan != nil && len(open) < 3: // plan-cache hit
					if ticket, ok := m.PinPlan(lastPlan.plan); ok {
						open = append(open, &liveBatch{queries: lastPlan.queries, sets: lastPlan.sets,
							ticket: ticket, plan: lastPlan.plan, planned: true})
					}
				case op == 5 && len(open) > 0: // plan-spools only
					plan(open[rng.Intn(len(open))])
				case op < 9 && len(open) > 0: // execute and commit
					b := take()
					execute(b)
					b.ticket.Commit()
					lastPlan = b
				case op == 9 && len(open) > 0: // abort, sometimes after spooling rows
					b := take()
					if rng.Intn(2) == 0 {
						execute(b)
					}
					b.ticket.Abort()
				case op == 10:
					bud := budgets[rng.Intn(len(budgets))]
					m.SetBudgets(bud[0], bud[1])
				case op == 11:
					m.WaitPromotions()
				}
				checkStructure(t, m)
				if len(open) == 0 {
					checkInvariants(t, m)
				}
				if t.Failed() {
					t.Fatalf("invariants broken after step %d", step)
				}
			}
			for _, b := range open {
				b.ticket.Abort()
			}
			st := m.Stats()
			if st.Hits == 0 || st.BindingHits == 0 || st.BindingPartialHits == 0 || st.Evictions == 0 ||
				st.Demotions == 0 || st.WarmHits == 0 || st.Promotions == 0 {
				t.Errorf("sequence left a transition unexercised: %+v", st)
			}
		})
	}
}
