package mqo

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mqo/internal/exec"
	"mqo/internal/ssb"
)

// len reports how many texts the cache holds.
func (c *stmtCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byText)
}

// freshAnswers runs each text alone on a session of its own over w's
// database, with no plan, result or statement cached: what every answer of
// the session under test must equal.
func freshAnswers(t *testing.T, w *frontDoorWorld) []QueryResult {
	t.Helper()
	fresh, err := Open(w.opt.Catalog(), WithDB(w.db))
	if err != nil {
		t.Fatal(err)
	}
	var out []QueryResult
	for _, text := range w.texts {
		qs, err := fresh.ParseSQL(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fresh.Run(context.Background(), Batch{Queries: qs, Algorithm: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Queries[0])
	}
	return out
}

// TestStmtCacheConcurrentSubmit is the differential under the race detector:
// eight clients submit SSB texts — some whose answers the service has stored
// and serves at the front door, some it has never seen — while the session
// shares one compiled tree per text among them all. Before they start, one
// text arrives twice in a single window, a batch holding the same *Query
// twice. Every answer must equal a fresh session's and the reference's.
func TestStmtCacheConcurrentSubmit(t *testing.T) {
	const clients, perClient, storedTexts = 8, 30, 6
	w := newFrontDoorWorld(t, ssb.AllQuerySQL(), BatchingOptions{MaxBatch: 2, MaxWait: 20 * time.Millisecond, Workers: 3,
		ResultCacheBytes: 8 << 20}, WithPlanCache(64))
	fresh := freshAnswers(t, w)
	check := func(i int, ans *Answer) {
		t.Helper()
		if ans != nil && !exec.EqualRows(ans.Query, fresh[i], 1e-9) {
			t.Errorf("text %d (stored=%v, batch of %d): %d rows differ from a fresh session's %d",
				i, ans.Batch.Stored, ans.Batch.Size, len(ans.Query.Rows), len(fresh[i].Rows))
		}
	}

	// Alone three times: computed, read back, then served at the front door.
	for i := 0; i < storedTexts; i++ {
		var ans *Answer
		for range 3 {
			ans = w.submit(t, i)
			check(i, ans)
		}
		if ans != nil && !ans.Batch.Stored {
			t.Fatalf("text %d: not served at the front door after three runs alone", i)
		}
	}

	// One unseen text, twice at once: the window fills with the same tree.
	twice := len(w.texts) - 1
	pair := make([]*Answer, 2)
	var wg sync.WaitGroup
	for k := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair[k] = w.submit(t, twice)
		}()
	}
	wg.Wait()
	if pair[0] != nil && pair[1] != nil {
		for _, ans := range pair {
			check(twice, ans)
			if ans.Batch.Size != 2 || ans.Batch.Seq != pair[0].Batch.Seq {
				t.Errorf("the same text twice at once was answered by %+v, want one window of two", ans.Batch)
			}
		}
	}
	a, _, errA := w.opt.compile(w.texts[twice])
	b, _, errB := w.opt.compile(w.texts[twice])
	if errA != nil || errB != nil || a[0] != b[0] {
		t.Errorf("two compilations of one text gave trees %p and %p (%v, %v), want the same", a[0], b[0], errA, errB)
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for range perClient {
				i := rng.Intn(len(w.texts))
				check(i, w.submit(t, i))
			}
		}(rand.New(rand.NewSource(int64(c))))
	}
	wg.Wait()
	st := w.svc.Stats()
	t.Logf("%d queries in %d batches, %d at the front door; %d texts compiled", st.Queries, st.Batches, st.Stored, w.opt.stmts.len())
	if st.Stored <= storedTexts || st.Queries == st.Stored {
		t.Errorf("stats %+v: want stored and windowed answers both", st)
	}
	if n := w.opt.stmts.len(); n != len(w.texts) {
		t.Errorf("the session holds %d compiled texts, want %d", n, len(w.texts))
	}
}

// TestParsedTreesAreTheCallers: ParseSQL hands out trees of the caller's own,
// so rewriting them — before the session has compiled the text or after —
// changes nothing the next Submit of that text answers.
func TestParsedTreesAreTheCallers(t *testing.T) {
	w := newFrontDoorWorld(t, ssb.AllQuerySQL()[:2], BatchingOptions{MaxBatch: 1}, WithPlanCache(16))
	for i := range w.texts {
		if i == 1 { // compiled before ParseSQL is asked
			w.submit(t, i)
		}
		qs, err := w.opt.ParseSQL(w.texts[i])
		if err != nil {
			t.Fatal(err)
		}
		*qs[0] = *qs[0].Inputs[0] // the aggregate's input stands in for it
		for range 2 {
			w.submit(t, i)
		}
		again, err := w.opt.ParseSQL(w.texts[i])
		if err != nil {
			t.Fatal(err)
		}
		compiled, _, err := w.opt.compile(w.texts[i])
		if err != nil {
			t.Fatal(err)
		}
		if again[0] == compiled[0] || again[0].Fingerprint() != compiled[0].Fingerprint() {
			t.Errorf("text %d: ParseSQL returned the session's tree, or a different one", i)
		}
	}
}

// TestStmtCacheIsBounded: after more distinct texts than it holds the cache
// keeps stmtCacheCap of them, and their fingerprints only; the first text,
// evicted, is parsed again and answers as it did, and the last is not.
func TestStmtCacheIsBounded(t *testing.T) {
	const extra = 3
	w := newFrontDoorWorld(t, []string{ssb.QuerySQL(1, 0)}, BatchingOptions{})
	ctx := context.Background()
	// Trailing blanks make texts that differ and lower alike.
	text := func(n int) string { return w.texts[0] + strings.Repeat(" ", n) }
	var first *ExecResult
	for n := 0; n < stmtCacheCap+extra; n++ {
		res, err := w.opt.Run(ctx, Batch{SQL: text(n), Algorithm: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			first = res
		}
	}
	w.opt.stmts.mu.Lock()
	fps := len(w.opt.stmts.fps)
	w.opt.stmts.mu.Unlock()
	if texts := w.opt.stmts.len(); texts != stmtCacheCap || fps != stmtCacheCap {
		t.Fatalf("after %d distinct texts the cache holds %d texts and %d fingerprints, want %d of each",
			stmtCacheCap+extra, texts, fps, stmtCacheCap)
	}
	for _, c := range []struct {
		n      int
		misses int64
	}{{stmtCacheCap + extra - 1, 0}, {0, 1}} {
		misses := stmtMiss.Value()
		res, err := w.opt.Run(ctx, Batch{SQL: text(c.n), Algorithm: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		if got := stmtMiss.Value() - misses; got != c.misses {
			t.Errorf("text %d: %d statement misses, want %d", c.n, got, c.misses)
		}
		if !exec.EqualRows(res.Queries[0], first.Queries[0], 1e-9) || !exec.EqualRows(res.Queries[0], w.want[0], 1e-9) {
			t.Errorf("text %d answers %d rows, first %d, the reference %d", c.n, len(res.Queries[0].Rows), len(first.Queries[0].Rows), len(w.want[0].Rows))
		}
	}
}

// TestUnparsableTextIsNotCached: a text that does not parse, or does not
// lower against the catalog, fails every time through every entry point, and
// the session keeps nothing of it.
func TestUnparsableTextIsNotCached(t *testing.T) {
	w := newFrontDoorWorld(t, nil, BatchingOptions{MaxBatch: 1})
	ctx := context.Background()
	for _, bad := range []string{"SELEC lo_revenue FROM lineorder", "SELECT zzz FROM lineorder", " ;; "} {
		misses := stmtMiss.Value()
		for range 2 {
			if _, err := w.svc.Submit(ctx, bad); err == nil {
				t.Errorf("%q: Submit succeeded", bad)
			}
			if _, err := w.opt.Run(ctx, Batch{SQL: bad}); err == nil {
				t.Errorf("%q: Run succeeded", bad)
			}
			if _, err := w.opt.OptimizeSQL(ctx, bad, Greedy); err == nil {
				t.Errorf("%q: OptimizeSQL succeeded", bad)
			}
		}
		if got := stmtMiss.Value() - misses; got != 6 {
			t.Errorf("%q: %d statement misses over six attempts, want 6", bad, got)
		}
	}
	if n := w.opt.stmts.len(); n != 0 {
		t.Errorf("the session holds %d compiled texts, want none", n)
	}
}
