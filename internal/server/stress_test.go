// Concurrency stress for the serving hot path. This is an external test
// (package server_test) so it can drive the whole stack — mqo.Serve over
// generated data — against the batcher it lives next to; an in-package test
// would cycle (the root package imports this one).
//
// The suite is meant to run under -race (CI has a dedicated step): it
// hammers two tenant services with hundreds of concurrent Submits, mixed
// with mid-flight context cancellations and a result-cache budget shrink,
// then checks that every waiter came back (answer or its own ctx error),
// and that the result cache's accounting still matches its entries and
// storage.
package server_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mqo"
	"mqo/internal/cost"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// stressTenant is one tenant's running service, its database and its query
// pool.
type stressTenant struct {
	name    string
	opt     *mqo.Optimizer
	svc     *mqo.Service
	db      *mqo.DB
	queries []*mqo.Query
}

func openStressTenants(t *testing.T, workers int, rcBudget int64) []*stressTenant {
	t.Helper()
	const sf = 0.003
	tenants := []struct {
		name string
		cat  *mqo.Catalog
		load func(*mqo.DB, float64, int64) error
		pool func() []*mqo.Query
	}{
		{"ssb", ssb.Catalog(sf), ssb.LoadDB, func() []*mqo.Query {
			var qs []*mqo.Query
			for n := 1; n <= ssb.NumFlights; n++ {
				qs = append(qs, ssb.Flight(n)...)
			}
			return qs
		}},
		{"tpcd", tpcd.Catalog(sf), tpcd.LoadDB, func() []*mqo.Query {
			var qs []*mqo.Query
			for _, mk := range []func(int) *mqo.Query{tpcd.Q3, tpcd.Q5, tpcd.Q10} {
				qs = append(qs, mk(0), mk(1), mk(2))
			}
			return qs
		}},
	}
	var out []*stressTenant
	for _, tn := range tenants {
		db := mqo.NewDB(512)
		if err := tn.load(db, sf, 1); err != nil {
			t.Fatal(err)
		}
		opt, err := mqo.Open(tn.cat, mqo.WithDB(db), mqo.WithPlanCache(32))
		if err != nil {
			t.Fatal(err)
		}
		svc, err := mqo.Serve(opt, mqo.BatchingOptions{
			MaxBatch:         6,
			MaxWait:          500 * time.Microsecond,
			Workers:          workers,
			ResultCacheBytes: rcBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		out = append(out, &stressTenant{name: tn.name, opt: opt, svc: svc, db: db, queries: tn.pool()})
	}
	return out
}

// checkStoreAgainstStorage checks a drained tenant's result cache against
// its own accounting and against storage: the listed entries are the counted
// ones, their bytes sum to each tier's used bytes, and the database holds
// exactly one cache table per RAM entry and one warm file per warm entry —
// no orphan, no missing table.
func checkStoreAgainstStorage(t *testing.T, tn *stressTenant) {
	t.Helper()
	store := tn.opt.ResultCache()
	if store == nil {
		return
	}
	store.WaitPromotions()
	st, entries := store.Stats(), store.Entries()
	if len(entries) != st.Entries {
		t.Errorf("%s: %d entries listed, accounting says %d", tn.name, len(entries), st.Entries)
	}
	var used, warmUsed int64
	var ram, warm []string
	for _, e := range entries {
		if e.Tier == cost.TierWarm {
			warmUsed += e.Bytes
			warm = append(warm, e.Table)
		} else {
			used += e.Bytes
			ram = append(ram, e.Table)
		}
	}
	if used != st.UsedBytes || warmUsed != st.WarmUsedBytes {
		t.Errorf("%s: entries sum to %d RAM / %d warm bytes, accounting says %d / %d",
			tn.name, used, warmUsed, st.UsedBytes, st.WarmUsedBytes)
	}
	for _, tier := range []struct {
		name          string
		entries, have []string
	}{{"cache tables", ram, tn.db.CacheNames()}, {"warm files", warm, tn.db.WarmNames()}} {
		slices.Sort(tier.entries)
		slices.Sort(tier.have)
		if !slices.Equal(tier.entries, tier.have) {
			t.Errorf("%s: entries own %v, storage holds %s %v", tn.name, tier.entries, tier.name, tier.have)
		}
	}
}

// TestServeStressHotPath is the -race stress: hundreds of Submits across
// two tenants and many goroutines, every 5th request racing a cancellation,
// and a mid-flight result-cache budget shrink. The test passes when it
// terminates (no deadlock), every waiter got an answer or its own context
// error (no lost waiters), and the result cache still matches storage.
func TestServeStressHotPath(t *testing.T) {
	tenants := openStressTenants(t, 4, 4<<20)

	const requests = 300
	var (
		wg        sync.WaitGroup
		answered  atomic.Int64
		cancelled atomic.Int64
	)
	rng := rand.New(rand.NewSource(99))
	type submission struct {
		tenant *stressTenant
		query  *mqo.Query
		cancel bool
	}
	subs := make([]submission, requests)
	for i := range subs {
		tn := tenants[rng.Intn(len(tenants))]
		subs[i] = submission{
			tenant: tn,
			query:  tn.queries[rng.Intn(len(tn.queries))],
			cancel: i%5 == 4,
		}
	}

	errc := make(chan error, requests)
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub submission) {
			defer wg.Done()
			ctx := context.Background()
			if sub.cancel {
				// A deadline short enough that many (not necessarily all)
				// of these give up mid-flight, some while waiting in a
				// window, some while their batch runs.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*300*time.Microsecond)
				defer cancel()
			}
			ans, err := sub.tenant.svc.SubmitQuery(ctx, sub.query)
			switch {
			case err == nil:
				if ans == nil || ans.Query.Schema == nil {
					errc <- errors.New("nil answer without error")
					return
				}
				answered.Add(1)
			case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
				if !sub.cancel {
					errc <- err
					return
				}
				cancelled.Add(1)
			default:
				errc <- err
			}
		}(i, sub)
	}

	// Mid-flight budget shrink on both tenants: SetBudgets evicts under the
	// new ceiling while batches are committing against the same store.
	time.Sleep(2 * time.Millisecond)
	for _, tn := range tenants {
		tn.opt.ResultCache().SetBudgets(64<<10, 0)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("submit: %v", err)
	}
	if got := answered.Load() + cancelled.Load(); got != requests {
		t.Errorf("lost waiters: %d answered + %d cancelled != %d submitted",
			answered.Load(), cancelled.Load(), requests)
	}
	if answered.Load() == 0 {
		t.Error("no request was ever answered")
	}
	for _, tn := range tenants {
		// Drain in-flight batches so the accounting snapshot is quiescent.
		tn.svc.Close()
		checkStoreAgainstStorage(t, tn)
		st := tn.opt.ResultCache().Stats()
		if st.UsedBytes > st.BudgetBytes {
			// The shrink must actually be enforced once traffic drains.
			t.Errorf("%s: used bytes %d exceed shrunken budget %d", tn.name, st.UsedBytes, st.BudgetBytes)
		}
	}
}

// TestServeStressWorkersReconfigured runs the same mixed workload at
// several worker counts back to back — a cheap sweep that catches
// worker-count-dependent deadlocks.
func TestServeStressWorkersReconfigured(t *testing.T) {
	for _, workers := range []int{1, 8, 2} {
		tenants := openStressTenants(t, workers, 2<<20)
		var wg sync.WaitGroup
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 60; i++ {
			tn := tenants[rng.Intn(len(tenants))]
			q := tn.queries[rng.Intn(len(tn.queries))]
			wg.Add(1)
			go func(tn *stressTenant, q *mqo.Query) {
				defer wg.Done()
				if _, err := tn.svc.SubmitQuery(context.Background(), q); err != nil {
					t.Errorf("workers=%d: %v", workers, err)
				}
			}(tn, q)
		}
		wg.Wait()
		for _, tn := range tenants {
			tn.svc.Close()
			checkStoreAgainstStorage(t, tn)
		}
	}
}
