package mqo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mqo/internal/tpcd"
)

// rowSet renders rows as a sorted multiset of strings, for order-
// insensitive comparison.
func rowSet(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func equalRows(a, b []Row) bool {
	as, bs := rowSet(a), rowSet(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestSubmitCoalesces is the acceptance test for the micro-batching
// service: K concurrent Submits on one service coalesce into fewer than K
// optimizer batches, every client receives exactly its own query's rows
// (verified against solo runs), and the service stats report the
// batch-size distribution and the estimated cost saved versus no sharing.
// Run under -race in CI.
func TestSubmitCoalesces(t *testing.T) {
	const (
		sf = 0.002
		k  = 16
	)
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(sf), WithDB(db), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Serve(opt, BatchingOptions{MaxBatch: k, MaxWait: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Ground truth: each query executed alone.
	sqls := []string{sqlRevenue, sqlCounts}
	want := make([][]Row, len(sqls))
	for i, q := range sqls {
		solo, err := opt.Run(context.Background(), Batch{SQL: q, Algorithm: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = solo.Queries[0].Rows
	}

	var wg sync.WaitGroup
	answers := make([]*Answer, k)
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := svc.Submit(context.Background(), sqls[i%len(sqls)])
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			answers[i] = ans
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	batches := map[int64]bool{}
	for i, ans := range answers {
		if !equalRows(ans.Query.Rows, want[i%len(sqls)]) {
			t.Errorf("client %d: batched rows differ from solo execution", i)
		}
		batches[ans.Batch.Seq] = true
	}
	if len(batches) >= k {
		t.Errorf("%d concurrent Submits ran as %d batches; want coalescing (< %d)", k, len(batches), k)
	}

	stats := svc.Stats()
	if stats.Queries != k {
		t.Errorf("stats: %d queries executed, want %d", stats.Queries, k)
	}
	if int64(len(batches)) != stats.Batches {
		t.Errorf("stats: %d batches, clients saw %d", stats.Batches, len(batches))
	}
	var histSum, multi int64
	for size, n := range stats.SizeHist {
		histSum += n
		if size > 1 {
			multi += n
		}
	}
	if histSum != stats.Batches || multi == 0 {
		t.Errorf("size histogram %v: want sums to %d with a multi-query batch", stats.SizeHist, stats.Batches)
	}
	if stats.CostSaved <= 0 || stats.CostNoShare <= stats.CostShared {
		t.Errorf("stats report no sharing won: %+v", stats)
	}
}

// TestSubmitRejectsMultiStatement: Submit is strictly one query per call.
func TestSubmitRejectsMultiStatement(t *testing.T) {
	db := NewDB(256)
	if err := tpcd.LoadDB(db, 0.002, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(0.002), WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Serve(opt, BatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Submit(context.Background(), sqlBatch); err == nil {
		t.Error("multi-statement Submit succeeded, want error")
	}
}

// TestQueryBodyLimit: POST /query refuses a body over the 1 MiB limit with
// 413 instead of buffering whatever a client sends, and keeps answering
// normal queries afterwards.
func TestQueryBodyLimit(t *testing.T) {
	db := NewDB(256)
	if err := tpcd.LoadDB(db, 0.002, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(0.002), WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Serve(opt, BatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(ServiceHandler(svc))
	defer srv.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	huge := `{"sql": "SELECT ` + strings.Repeat("x", 2<<20) + `"}`
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body answered %d, want 413", code)
	}
	if code := post(fmt.Sprintf(`{"sql": %q}`, sqlCounts)); code != http.StatusOK {
		t.Errorf("normal query after the oversized one answered %d, want 200", code)
	}
}

// TestServeRequiresDB: the batching service needs an attached database.
func TestServeRequiresDB(t *testing.T) {
	opt, err := Open(tpcd.Catalog(1))
	if err != nil {
		t.Fatal(err)
	}
	if svc, err := Serve(opt, BatchingOptions{}); err == nil || svc != nil {
		t.Errorf("Serve without WithDB returned %v, %v; want no service and an error", svc, err)
	}
}

// TestSubmitHonoursContext: a Submit whose context is cancelled returns
// promptly without failing other waiters in the same window.
func TestSubmitHonoursContext(t *testing.T) {
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, 0.002, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(0.002), WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Serve(opt, BatchingOptions{MaxBatch: 8, MaxWait: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	quit := make(chan error, 1)
	go func() {
		_, err := svc.Submit(ctx, sqlCounts)
		quit <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()

	ans, err := svc.Submit(context.Background(), sqlRevenue)
	if err != nil {
		t.Fatalf("surviving waiter failed: %v", err)
	}
	if len(ans.Query.Rows) == 0 {
		t.Error("surviving waiter got no rows")
	}
	if err := <-quit; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter got %v, want context.Canceled", err)
	}
}

// TestConcurrentRunsOneDB: two sessions sharing one storage DB may Run
// concurrently — runs serialize on the DB's run lock, each with a private
// temp namespace, so results match solo execution and no temp leaks.
func TestConcurrentRunsOneDB(t *testing.T) {
	const sf = 0.002
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	optA, err := Open(tpcd.Catalog(sf), WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	optB, err := Open(tpcd.Catalog(sf), WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	want, err := optA.Run(context.Background(), Batch{SQL: sqlBatch, Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		opt := optA
		if g%2 == 1 {
			opt = optB
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := opt.Run(context.Background(), Batch{SQL: sqlBatch, Algorithm: Greedy})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				for qi := range res.Queries {
					if !equalRows(res.Queries[qi].Rows, want.Queries[qi].Rows) {
						errs <- fmt.Errorf("goroutine %d: query %d rows corrupted by concurrent run", g, qi)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := db.NumTemps(); n != 0 {
		t.Errorf("%d temp tables leaked after all runs ended", n)
	}
}

// TestQueryNonFiniteAnswer: a result that holds a float JSON has no number
// for (here +Inf, from an overflowing product) is answered 200 with its
// rows, the float spelled "+Inf" as /metrics spells it.
func TestQueryNonFiniteAnswer(t *testing.T) {
	db := NewDB(256)
	if err := tpcd.LoadDB(db, 0.002, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(0.002), WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Serve(opt, BatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(ServiceHandler(svc))
	defer srv.Close()

	huge := "1" + strings.Repeat("0", 200) + ".0"
	q := fmt.Sprintf("SELECT nname, SUM(nk * %s * %s) AS x FROM nation GROUP BY nname", huge, huge)
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(fmt.Sprintf(`{"sql": %q}`, q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("status %d with a body that is not JSON: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || len(body.Rows) == 0 {
		t.Fatalf("status %d, %d rows; want 200 and the nations' rows", resp.StatusCode, len(body.Rows))
	}
	if len(body.Columns) != 2 || !strings.HasSuffix(body.Columns[1], "x") {
		t.Fatalf("columns %v; want nname and x", body.Columns)
	}
	const x = 1
	for _, row := range body.Rows {
		if row[x] != "+Inf" {
			t.Errorf("row %v: x = %#v, want \"+Inf\"", row, row[x])
		}
	}
}

// TestJSONValueNonFinite: the floats JSON has no number for render as the
// strings /metrics uses; every other float stays a number.
func TestJSONValueNonFinite(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want any
	}{
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{-2.5, -2.5},
	} {
		got := jsonValue(FloatVal(c.f))
		if got != c.want {
			t.Errorf("jsonValue(%v) = %#v, want %#v", c.f, got, c.want)
		}
		if _, err := json.Marshal(got); err != nil {
			t.Errorf("jsonValue(%v) does not encode: %v", c.f, err)
		}
	}
}
