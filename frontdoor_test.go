package mqo

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mqo/internal/exec"
	"mqo/internal/ssb"
	"mqo/internal/storage"
)

// frontDoorWorld is a served session over generated SSB data, the thirteen
// SSB queries as SQL text, and what the naive reference evaluator answers
// to each.
type frontDoorWorld struct {
	db    *DB
	opt   *Optimizer
	svc   *Service
	texts []string
	want  []QueryResult
}

func newFrontDoorWorld(t *testing.T, texts []string, cfg BatchingOptions, opts ...Option) *frontDoorWorld {
	t.Helper()
	const sf = 0.0005
	w := &frontDoorWorld{db: NewDB(512), texts: texts}
	if err := ssb.LoadDB(w.db, sf, 1); err != nil {
		t.Fatal(err)
	}
	var err error
	if w.opt, err = Open(ssb.Catalog(sf), append([]Option{WithDB(w.db)}, opts...)...); err != nil {
		t.Fatal(err)
	}
	for _, text := range w.texts {
		qs, err := w.opt.ParseSQL(text)
		if err != nil || len(qs) != 1 {
			t.Fatalf("%s: %d queries, %v", text, len(qs), err)
		}
		rows, schema, err := exec.Reference(w.db, qs[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		w.want = append(w.want, QueryResult{Schema: schema, Rows: rows})
	}
	if w.svc, err = Serve(w.opt, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.opt.Close)
	return w
}

// submit sends text i through the service and checks the answer against the
// reference. Safe to call from any goroutine.
func (w *frontDoorWorld) submit(t *testing.T, i int) *Answer {
	ans, err := w.svc.Submit(context.Background(), w.texts[i])
	if err != nil {
		t.Errorf("text %d: %v", i, err)
		return nil
	}
	if !exec.EqualRows(ans.Query, w.want[i], 1e-9) {
		t.Errorf("text %d (stored=%v, batch of %d): %d rows differ from the reference's %d",
			i, ans.Batch.Stored, ans.Batch.Size, len(ans.Query.Rows), len(w.want[i].Rows))
	}
	return ans
}

// TestFrontDoorEvictionRace is the differential under the race detector:
// concurrent clients submit SSB texts, stored and not yet stored, to a
// service whose result cache is too small for them all and has a warm tier
// below it, so that between a request's peek at the plan cache and its pin a
// concurrent commit may evict the table it is about to read, demote it or
// promote it. Every answer must equal the reference's; a text whose answer
// was served at the front door and then evicted must be seen back in a
// window; and when the service has stopped no pin may be left behind — with
// both budgets shrunk to nothing every entry must go, since only a pin
// keeps one (the store's own quiescence invariant, seen from outside).
func TestFrontDoorEvictionRace(t *testing.T) {
	const clients, perClient = 6, 60
	w := newFrontDoorWorld(t, ssb.AllQuerySQL(), BatchingOptions{MaxBatch: 4, MaxWait: 200 * time.Microsecond, Workers: 3,
		ResultCacheBytes: 6 * storage.PageSize, ResultCacheWarmBytes: 3 * storage.PageSize},
		WithPlanCache(32))

	var mu sync.Mutex
	wasStored := make([]bool, len(w.texts))
	back := 0 // answers from a window to a text the front door had served before
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				i := rng.Intn(len(w.texts))
				ans := w.submit(t, i)
				if ans == nil {
					continue
				}
				mu.Lock()
				if ans.Batch.Stored {
					wasStored[i] = true
				} else if wasStored[i] {
					back++
				}
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(int64(c))))
	}
	// The store's budgets shrink to a page and recover, over and over, while
	// the clients run: each shrink evicts or demotes whatever no batch has
	// pinned at that instant, stored answers with plans at the front door
	// among them.
	stop, churned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(churned)
		store := w.opt.ResultCache()
		for {
			select {
			case <-stop:
				return
			case <-time.After(300 * time.Microsecond):
			}
			store.SetBudgets(storage.PageSize, storage.PageSize)
			store.SetBudgets(6*storage.PageSize, 3*storage.PageSize)
		}
	}()
	wg.Wait()
	close(stop)
	<-churned
	st, rc := w.svc.Stats(), w.opt.ResultCacheStats()
	t.Logf("stored %d of %d queries, %d back in a window; evictions %d demotions %d promotions %d; plan cache %+v",
		st.Stored, st.Queries, back, rc.Evictions, rc.Demotions, rc.Promotions, w.opt.CacheStats())
	if st.Stored == 0 || back == 0 {
		t.Errorf("front door served %d queries and %d came back to a window after it: the race was not exercised", st.Stored, back)
	}
	if rc.Evictions+rc.Demotions == 0 {
		t.Errorf("nothing was evicted or demoted: %+v", rc)
	}

	// Only a pin keeps an entry through a budget of nothing; the service has
	// stopped, so none may be left — an empty result demoted to the warm tier
	// included.
	w.svc.Close()
	store := w.opt.ResultCache()
	store.WaitPromotions()
	store.SetBudgets(0, 0)
	for _, e := range store.Entries() {
		t.Errorf("entry %s (%v tier, %d bytes) survives a budget of nothing: pinned by a batch that has left", e.Table, e.Tier, e.Bytes)
	}
	if n := w.db.NumWarm(); n != 0 {
		t.Errorf("%d warm tables outlive their entries", n)
	}
	if ram := w.db.CacheNames(); len(ram) != 0 {
		t.Errorf("cache tables %v outlive their entries", ram)
	}
}

// TestFrontDoorWithoutSoloPhase: eight clients send the same eight texts
// round after round, all at once, so no text ever arrives alone — every one
// sits in a full window. The windows' plans come to read the answers from
// the store, each such query gets a plan of its own on the way out, and
// after a few rounds every answer comes from the front door. That includes
// flight 2 and Q3.1, which a window stores under a canonical fingerprint the
// query's own DAG does not give it (a sibling's derivations join its groups):
// planned alone they find nothing in the store unless told which table the
// window's plan read.
//
// The time a window spends making those plans is part of its optimize phase:
// what /stats totals as phase_seconds.optimize is what the answers' batches
// report, each batch counted once.
func TestFrontDoorWithoutSoloPhase(t *testing.T) {
	const clients, maxRounds = 8, 12
	texts := ssb.AllQuerySQL()[:clients]
	w := newFrontDoorWorld(t, texts, BatchingOptions{MaxBatch: clients, MaxWait: 50 * time.Millisecond,
		ResultCacheBytes: 8 << 20}, WithPlanCache(64))
	var mu sync.Mutex
	optimize := map[int64]time.Duration{} // by batch Seq
	optimizeBefore, batchesBefore := phaseSecondsSnapshot()["optimize"], phaseOptimize.Count()
	for round := 1; ; round++ {
		stored := make([]bool, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			before := w.svc.Stats().Submitted
			go func(c int) {
				defer wg.Done()
				if ans := w.submit(t, c); ans != nil {
					stored[c] = ans.Batch.Stored
					mu.Lock()
					optimize[ans.Batch.Seq] = ans.Batch.Phases.Optimize
					mu.Unlock()
				}
			}(c)
			for w.svc.Stats().Submitted == before { // windows fill in the same order every round
				time.Sleep(20 * time.Microsecond)
			}
		}
		wg.Wait()
		n := 0
		for _, s := range stored {
			if s {
				n++
			}
		}
		t.Logf("round %d: %d of %d answered at the front door", round, n, clients)
		if n == clients {
			break
		}
		if round == 1 && n > 0 {
			t.Errorf("round 1: %d answers came from the front door of a service that had stored nothing", n)
		}
		if round == maxRounds {
			t.Fatalf("after %d rounds only %d of %d texts are answered at the front door", round, n, clients)
		}
	}
	st := w.svc.Stats()
	if st.Stored < clients || st.Stored >= st.Queries {
		t.Errorf("stats %+v: want at least %d stored, and fewer than all", st, clients)
	}
	// Served without a window is neither a plan-cache probe of its own nor
	// invisible: each front-door answer was one plan-cache hit.
	if pc := w.opt.CacheStats(); pc.Hits < st.Stored {
		t.Errorf("plan cache %+v counts fewer hits than the %d stored answers", pc, st.Stored)
	}
	var answered time.Duration
	for _, d := range optimize {
		answered += d
	}
	registry := phaseSecondsSnapshot()["optimize"] - optimizeBefore
	if math.Abs(registry-answered.Seconds()) > 1e-6 {
		t.Errorf("phase_seconds.optimize grew by %.6f s; the %d batches' answers report %.6f s",
			registry, len(optimize), answered.Seconds())
	}
	if n := phaseOptimize.Count() - batchesBefore; n != int64(len(optimize)) {
		t.Errorf("the optimize phase was observed %d times for %d batches", n, len(optimize))
	}
}

// TestStoredSubmitAllocs: a Submit whose answer is stored allocates no more
// than its pin, scan and commit need — no watcher goroutine or context of
// its own for its batch of one, no copy of the cached plan, no trace context
// while tracing is off. The bound is what BenchmarkHotSubmit's allocs/op may
// read; a path that grows past it allocated for machinery a stored answer
// does not use.
func TestStoredSubmitAllocs(t *testing.T) {
	const maxAllocs = 32
	text := ssb.QuerySQL(1, 0)
	w := newFrontDoorWorld(t, []string{text}, BatchingOptions{MaxBatch: 1, ResultCacheBytes: 16 << 20},
		WithPlanCache(64))
	var ans *Answer
	for i := 0; i < 3; i++ { // computed, read back, then served stored
		ans = w.submit(t, 0)
	}
	if ans == nil || !ans.Batch.Stored {
		t.Fatalf("the third Submit was not served stored: %+v", ans)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if ans, err := w.svc.Submit(ctx, text); err != nil || !ans.Batch.Stored {
			t.Fatalf("a timed Submit was not served stored: %v", err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("a stored Submit allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}
