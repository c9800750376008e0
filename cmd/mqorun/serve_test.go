package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mqo"
)

const (
	sqlRevenue = `SELECT nname, SUM(lprice) AS rev FROM lineitem, supplier, nation
		WHERE lsk = sk AND snk = nk AND lship > 2000 GROUP BY nname`
	sqlCounts = `SELECT nname, COUNT(*) AS n FROM lineitem, supplier, nation
		WHERE lsk = sk AND snk = nk AND lship > 2200 GROUP BY nname`
)

type queryReply struct {
	Columns []string        `json:"columns"`
	Rows    [][]interface{} `json:"rows"`
	Batch   struct {
		Seq         int64   `json:"seq"`
		Size        int     `json:"size"`
		Cost        float64 `json:"cost"`
		NoShareCost float64 `json:"no_share_cost"`
		CacheHit    bool    `json:"cache_hit"`
		Algorithm   string  `json:"algorithm"`
		Stored      bool    `json:"stored"`
		WaitNS      int64   `json:"wait_ns"`
		Phases      struct {
			ParseNS    int64 `json:"parse_ns"`
			LowerNS    int64 `json:"lower_ns"`
			OptimizeNS int64 `json:"optimize_ns"`
			ExecuteNS  int64 `json:"execute_ns"`
		} `json:"phases"`
	} `json:"batch"`
}

type statsReply struct {
	Service struct {
		Submitted int64            `json:"submitted"`
		Batches   int64            `json:"batches"`
		Queries   int64            `json:"queries"`
		Stored    int64            `json:"stored"`
		SizeHist  map[string]int64 `json:"size_hist"`
		CostSaved float64          `json:"cost_saved"`
	} `json:"service"`
	PlanCache    mqo.CacheStats     `json:"plan_cache"`
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
}

// workload returns the named workload of the table.
func workload(name string) namedWorkload {
	i := slices.IndexFunc(workloads, func(w namedWorkload) bool { return w.name == name })
	return workloads[i]
}

// TestEndToEnd boots the full serving stack over HTTP, fires concurrent
// clients at it, and asserts the micro-batcher actually coalesced them
// into shared MQO batches: fewer batches than clients, a batch-size
// distribution with multi-query batches, and estimated cost saved versus
// no sharing. This is the CI gate for "batched sharing occurred". The
// traffic is cold — no answer is stored, so none may skip its window; what
// stored answers do is TestEndToEndMetrics's.
func TestEndToEnd(t *testing.T) {
	const clients = 12
	handler, svc, opt, err := newService(workload("bq"), 0.002, 1024, 64, mqo.BatchingOptions{
		MaxBatch: clients,
		MaxWait:  500 * time.Millisecond,
		Workers:  2,
	}, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	defer opt.Close()
	defer svc.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// Fire concurrent clients, alternating two queries that share their
	// lineitem ⋈ supplier ⋈ nation join.
	var wg sync.WaitGroup
	replies := make([]queryReply, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := sqlRevenue
			if i%2 == 1 {
				sql = sqlCounts
			}
			body, _ := json.Marshal(map[string]string{"sql": sql})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&replies[i]); err != nil {
				errs <- fmt.Errorf("client %d: decode: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every client got its own query's result, not a neighbour's.
	seqs := map[int64]bool{}
	for i, r := range replies {
		wantCol := "q.rev"
		if i%2 == 1 {
			wantCol = "q.n"
		}
		if len(r.Columns) != 2 || r.Columns[1] != wantCol {
			t.Errorf("client %d: columns %v, want [nation.nname %s]", i, r.Columns, wantCol)
		}
		if len(r.Rows) == 0 {
			t.Errorf("client %d: no rows", i)
		}
		// Coalescing is asserted in aggregate below (batch count, size
		// histogram, cost saved): a straggler client legitimately landing
		// in its own window must not fail the gate.
		if r.Batch.Algorithm != "Greedy" {
			t.Errorf("client %d: algorithm %q", i, r.Batch.Algorithm)
		}
		if r.Batch.Stored {
			t.Errorf("client %d: answered without a window, though nothing is stored", i)
		}
		seqs[r.Batch.Seq] = true
	}
	if len(seqs) >= clients {
		t.Errorf("%d clients ran as %d batches: no coalescing happened", clients, len(seqs))
	}
	// Both query shapes in one window share their three-way join: the
	// shared plan must beat the no-sharing baseline.
	for i, r := range replies {
		if r.Batch.Size >= 2 && r.Batch.NoShareCost <= r.Batch.Cost {
			t.Errorf("client %d: batch of %d saved nothing (cost %.3f, no-share %.3f)",
				i, r.Batch.Size, r.Batch.Cost, r.Batch.NoShareCost)
		}
	}

	// GET /stats reports the batch-size distribution and the cost saved.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsReply
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Service.Submitted != clients || stats.Service.Queries != clients {
		t.Errorf("stats: submitted %d queries %d, want %d each",
			stats.Service.Submitted, stats.Service.Queries, clients)
	}
	if stats.Service.Batches >= clients || stats.Service.Stored != 0 {
		t.Errorf("stats: %d batches, %d of them stored answers, for %d clients: want coalescing",
			stats.Service.Batches, stats.Service.Stored, clients)
	}
	multi := false
	for size, n := range stats.Service.SizeHist {
		if v, _ := strconv.Atoi(size); v > 1 && n > 0 {
			multi = true
		}
	}
	if !multi {
		t.Errorf("stats: size_hist %v reports no multi-query batch", stats.Service.SizeHist)
	}
	if stats.Service.CostSaved <= 0 {
		t.Errorf("stats: cost_saved %.3f, want > 0", stats.Service.CostSaved)
	}
}

// TestSSBWorkload boots the server over generated SSB data and runs one
// flight query through the full HTTP path.
func TestSSBWorkload(t *testing.T) {
	handler, svc, opt, err := newService(workload("ssb"), 0.002, 1024, 16, mqo.BatchingOptions{
		MaxBatch: 1, MaxWait: time.Millisecond,
	}, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	defer opt.Close()
	defer svc.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{
		"sql": `SELECT SUM(loprice*lodisc) AS revenue FROM lineorder, date
			WHERE lodate = dk AND dyear = 1993 AND lodisc >= 1 AND lodisc <= 3 AND loqty < 25`,
	})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var r queryReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) != 1 || r.Columns[0] != "q.revenue" {
		t.Errorf("columns %v, want [q.revenue]", r.Columns)
	}
	if len(r.Rows) != 1 {
		t.Errorf("%d rows, want 1", len(r.Rows))
	}

	// The workload table is run's: an unknown name is refused before any
	// server starts.
	if err := run([]string{"-serve", "127.0.0.1:0", "-workload", "nosuch"}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestEndToEndMetrics drives traffic through the full stack, then scrapes
// GET /metrics and asserts the output is Prometheus-parseable and covers
// every subsystem: optimizer phases, executor operators, the result cache
// and the batcher's latency quantiles. It also checks the per-phase timing
// breakdown surfaces in both the per-query batch report and GET /stats, and
// that only a text's first request parses it.
// The name keeps it under CI's dedicated `-run 'TestEndToEnd'` e2e step.
func TestEndToEndMetrics(t *testing.T) {
	const maxWait = 50 * time.Millisecond
	handler, svc, opt, err := newService(workload("bq"), 0.002, 1024, 16, mqo.BatchingOptions{
		MaxBatch:         2,
		MaxWait:          maxWait,
		ResultCacheBytes: 1 << 20,
	}, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	defer opt.Close()
	defer svc.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	stmtHits, stmtMisses := `mqo_sql_statement_total{outcome="hit"}`, `mqo_sql_statement_total{outcome="miss"}`
	before := scrape(t, ts.URL)

	// Each query arrives alone three times: computed and spooled, read back
	// from the store by a plan that is then cached, and — the service having
	// that plan to find when it asks — answered without waiting for a window.
	for round := 1; round <= 3; round++ {
		for _, sql := range []string{sqlRevenue, sqlCounts} {
			body, _ := json.Marshal(map[string]string{"sql": sql})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var r queryReply
			err = json.NewDecoder(resp.Body).Decode(&r)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if r.Batch.Phases.OptimizeNS <= 0 || r.Batch.Phases.ExecuteNS <= 0 {
				t.Errorf("batch phases %+v: want optimize/execute > 0", r.Batch.Phases)
			}
			// The session compiles a text once: later requests parse nothing.
			if parsed := r.Batch.Phases.ParseNS > 0 || r.Batch.Phases.LowerNS > 0; parsed != (round == 1) {
				t.Errorf("round %d: batch phases %+v, want parse time only in round 1", round, r.Batch.Phases)
			}
			if stored := round == 3; r.Batch.Stored != stored || stored != (r.Batch.WaitNS < int64(maxWait)) {
				t.Errorf("round %d: stored=%v after a wait of %v, want stored=%v", round, r.Batch.Stored, time.Duration(r.Batch.WaitNS), stored)
			}
		}
	}

	text := scrape(t, ts.URL)
	for _, c := range []struct {
		series string
		want   float64
	}{{stmtMisses, 2}, {stmtHits, 4}} {
		if got := sample(t, text, c.series) - sample(t, before, c.series); got != c.want {
			t.Errorf("%s moved by %v over three rounds of two texts, want %v", c.series, got, c.want)
		}
	}

	// Required coverage: one representative series per subsystem.
	for _, want := range []string{
		`mqo_opt_phase_seconds_count{phase="sharability"}`, // optimizer phase timings
		`mqo_opt_phase_seconds_count{phase="waves"}`,
		"mqo_opt_batches_total",
		`mqo_dag_insert_total{outcome="new"}`, // DAG construction's derivation accounting
		`mqo_dag_insert_total{outcome="duplicate"}`,
		`mqo_dag_memo_total{outcome="hit"}`, // the session's logical-DAG memo
		`mqo_dag_memo_total{outcome="miss"}`,
		`mqo_physical_dag_total{outcome="reused"} `, // the idle physical DAG the session kept
		`mqo_physical_dag_total{outcome="built"} `,
		"mqo_exec_runs_total",
		"mqo_exec_operator_rows_total", // per-operator executor counters
		"mqo_resultcache_batches_total",
		"mqo_resultcache_used_bytes",
		"mqo_server_queue_wait_seconds_p50", // batcher latency quantiles
		"mqo_server_queue_wait_seconds_p99",
		"mqo_server_batch_seconds_count",
		`mqo_batch_phase_seconds_sum{phase="execute"}`,
		"# TYPE mqo_server_queue_wait_seconds histogram",
		"# TYPE mqo_server_submitted_total counter",
		"mqo_server_stored_total 2", // the third round's two answers
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Prometheus text-format check: every sample line is `name[{labels}]
	// value` with a parseable float value and a legal metric name.
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?$`)
	samples := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("sample line %q: want `name value`", line)
			continue
		}
		if !nameRe.MatchString(fields[0]) {
			t.Errorf("sample line %q: bad metric name", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Errorf("sample line %q: bad value: %v", line, err)
		}
		samples++
	}
	if samples < 50 {
		t.Errorf("/metrics exposed %d samples, want a full registry", samples)
	}

	// GET /stats reports the cumulative per-phase seconds.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats statsReply
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"parse", "lower", "optimize", "execute", "spool"} {
		if _, ok := stats.PhaseSeconds[phase]; !ok {
			t.Errorf("stats phase_seconds missing %q (got %v)", phase, stats.PhaseSeconds)
		}
	}
	if stats.Service.Stored != 2 || stats.Service.Batches != 6 {
		t.Errorf("stats: %d stored answers among %d batches, want 2 among 6", stats.Service.Stored, stats.Service.Batches)
	}
	if stats.PhaseSeconds["execute"] <= 0 || stats.PhaseSeconds["optimize"] <= 0 {
		t.Errorf("stats phase_seconds %v: want optimize and execute > 0", stats.PhaseSeconds)
	}
}

// scrape returns the server's GET /metrics text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// sample returns the value of one series in a /metrics text.
func sample(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", series)
	return 0
}

// TestBadRequests covers the HTTP error paths.
func TestBadRequests(t *testing.T) {
	handler, svc, opt, err := newService(workload("bq"), 0.002, 256, 0, mqo.BatchingOptions{
		MaxBatch: 1, MaxWait: time.Millisecond,
	}, "volcano-ru")
	if err != nil {
		t.Fatal(err)
	}
	defer opt.Close()
	defer svc.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"sql": "SELEC nname FROM nation"}`, http.StatusUnprocessableEntity},                            // parse error
		{`not json`, http.StatusBadRequest},                                                               // bad body
		{`{"sql": "SELECT nname FROM nation; SELECT nname FROM nation"}`, http.StatusUnprocessableEntity}, // two statements
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
}
