package mqo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/exec"
	"mqo/internal/server"
)

// BatchingOptions tunes the micro-batching service (Serve). The
// zero value means: windows of up to 8 queries, 2ms max wait, 2 workers,
// Greedy by default (the paper's strongest heuristic).
type BatchingOptions struct {
	// MaxBatch flushes a window immediately once this many queries are
	// pending (default 8).
	MaxBatch int
	// MaxWait is the longest the first query of a window waits before
	// the window flushes regardless of size (default 2ms). A query whose
	// whole answer is already stored waits for no window at all
	// (Service.SubmitQuery).
	MaxWait time.Duration
	// Workers bounds concurrently in-flight batches; batches optimize and
	// execute fully in parallel over the storage layer (default 2).
	Workers int
	// Algorithm selects the optimization strategy for coalesced batches.
	// The zero value selects Greedy.
	Algorithm Algorithm
	// UseVolcano forces the plain Volcano baseline (no sharing) when set
	// together with a zero Algorithm; it exists because Volcano is the
	// Algorithm zero value and would otherwise be unreachable as an
	// explicit choice.
	UseVolcano bool
	// ResultCacheBytes enables the cross-batch result cache for the
	// service with the given byte budget (equivalent to opening the
	// session with WithResultCache), resizing the session's store if it
	// already exists with a different budget: hot subexpressions spooled
	// by one micro-batch persist and answer later batches from storage.
	// 0 keeps whatever the session was opened with.
	ResultCacheBytes int64
	// ResultCacheWarmBytes sizes the result cache's disk-backed warm tier
	// (see WithResultCache): RAM eviction demotes value-dense entries to
	// heap files on disk instead of dropping them, and warm hits are served
	// from storage at the cost model's WarmReadS rate. Only consulted when
	// ResultCacheBytes is set; 0 disables the warm tier for the service.
	ResultCacheWarmBytes int64
}

// BatchInfo describes the batch that answered a submitted query: sequence
// number, size, estimated shared vs. no-sharing cost, plan-cache hit,
// whether the query skipped the window because its answer was stored, wait
// time and the batch's measured execution profile.
type BatchInfo = server.BatchInfo

// ServiceStats is the batching service's accounting: batch-size
// distribution, queries answered without a window, cancelled waiters, and
// estimated cost saved versus optimizing every query alone.
type ServiceStats = server.Stats

// Answer is the per-query outcome of a micro-batched execution: Query holds
// this submission's rows and schema — only its own, even though the batch
// computed several queries' results in one run — and Batch describes the
// coalesced batch that produced it.
type Answer = server.Response

// Service is a running micro-batching query service over one Optimizer:
// concurrent Submit calls coalesce into MQO batches (whatever arrives
// within the batching window runs as one optimize+execute pass), and each
// caller gets exactly its own query's rows back.
type Service struct {
	opt *Optimizer
	alg Algorithm
	b   *server.Batcher
}

// Serve starts a micro-batching service over the session. Requires a
// session with an attached database (WithDB). Close the service to flush
// and reject further submissions; the Optimizer itself stays usable.
func Serve(o *Optimizer, cfg BatchingOptions) (*Service, error) {
	if o == nil {
		return nil, fmt.Errorf("mqo: Serve: nil optimizer")
	}
	if o.db == nil {
		return nil, fmt.Errorf("mqo: Serve: no database attached (use WithDB)")
	}
	if cfg.ResultCacheBytes > 0 {
		if err := o.ensureResultCache(cfg.ResultCacheBytes, cfg.ResultCacheWarmBytes); err != nil {
			return nil, err
		}
	}
	alg := cfg.Algorithm
	if alg == Volcano && !cfg.UseVolcano {
		alg = Greedy
	}
	s := &Service{opt: o, alg: alg}
	s.b = server.NewBatcher(server.Config{
		MaxBatch: cfg.MaxBatch,
		MaxWait:  cfg.MaxWait,
		Workers:  cfg.Workers,
	}, s.runBatch)
	return s, nil
}

// Submit enqueues exactly one SELECT statement and blocks until its batch
// has run or ctx is done. Queries from concurrent Submit calls that land
// in the same batching window are optimized and executed together; a
// caller that gives up (ctx cancelled) does not fail the batch for the
// other waiters. Parameterized queries are not supported through Submit —
// use Run, which executes the caller's batch alone with its ParamSets.
//
// The session compiles each text once (stmtCache): a repeated text skips
// parsing, lowering and rendering its plan-cache key, and its answer reports
// no parse or lower time. Every Submit of one text therefore carries the same
// tree — nothing writes to a tree after lowering — and two of them landing in
// one window make a batch that holds the same *Query twice.
func (s *Service) Submit(ctx context.Context, sqlText string) (*Answer, error) {
	queries, pt, err := s.opt.compile(sqlText)
	if err != nil {
		return nil, err
	}
	if len(queries) != 1 {
		return nil, fmt.Errorf("mqo: Submit: want exactly one SELECT, got %d", len(queries))
	}
	// Parse and lower happened on this goroutine, before the query joined
	// its batching window — or not at all, for a text compiled before.
	return s.submit(ctx, queries[0], pt)
}

// SubmitQuery is Submit for an already-parsed algebra query.
//
// The service asks before it queues. A window exists to find sharing
// partners, and a query whose whole answer is stored has none to find: when
// the session plan cache already holds a plan for q on its own that only
// reads the stored answer, q skips the window and runs at once as a batch of
// one — through the same plan-cache hit, pin, execute and commit as any
// batch, on the same workers (BatchInfo.Stored, ServiceStats.Stored).
// Asking is a peek, neither a hit nor a miss in CacheStats. Should the table
// be evicted or change tier between the peek and the pin, the pin fails and
// the batch of one is simply optimized. Without a plan cache (WithPlanCache)
// there is nothing to ask, and every query joins a window.
func (s *Service) SubmitQuery(ctx context.Context, q *Query) (*Answer, error) {
	return s.submit(ctx, q, server.PhaseTimes{})
}

func (s *Service) submit(ctx context.Context, q *Query, compiled server.PhaseTimes) (*Answer, error) {
	submit := s.b.Submit
	if s.opt.memo.planCap > 0 {
		mk := s.opt.stmts.key([]*Query{q})
		_, stored := s.opt.memo.peek(mk.b, newPlanKey(s.alg, s.opt.resultCache(), nil))
		mk.release()
		if stored {
			submit = s.b.SubmitStored
		}
	}
	return submit(ctx, q, compiled)
}

// Stats snapshots the service's accounting.
func (s *Service) Stats() ServiceStats { return s.b.Stats() }

// Flush dispatches the open batching window immediately.
func (s *Service) Flush() { s.b.Flush() }

// Close flushes the open window, waits for in-flight batches and makes
// further Submits fail. The underlying Optimizer stays usable.
func (s *Service) Close() { s.b.Close() }

// runBatch is the server.Runner: one coalesced batch through the session's
// single execution path (plan cache and result cache consulted around the
// optimize+execute pass). It hands back rows and accounting only, so it
// reads a cached plan in place instead of copying it.
func (s *Service) runBatch(ctx context.Context, queries []*algebra.Tree) ([]exec.QueryResult, BatchInfo, error) {
	// The serving path profiles every run: the per-operator registry series
	// come from here.
	res, meta, err := s.opt.runOnDB(ctx, queries, s.alg, &exec.Env{Profile: true})
	if err != nil {
		return nil, BatchInfo{}, err
	}
	if s.opt.memo.planCap > 0 && len(queries) > 1 && !meta.PlanCacheHit {
		// A query need never have arrived alone: under steady heavy traffic a
		// hot text only ever sits in full windows, and SubmitQuery finds no
		// plan of its own to let it past them. The window makes one on the
		// way out, once per text, for each answer its plan read from the
		// store.
		seedStart := time.Now()
		s.opt.planStoredAlone(ctx, queries, s.alg, res.Plan)
		meta.Phases.Optimize += time.Since(seedStart)
	}
	// Observed once it is final, so /stats' phase_seconds.optimize is what
	// the answers' batch.phases add up to.
	phaseOptimize.ObserveDuration(meta.Phases.Optimize)
	return res.Queries, BatchInfo{
		Cost:             res.Cost,
		NoShareCost:      res.NoShareCost,
		CacheHit:         meta.PlanCacheHit,
		ResultCacheHits:  meta.ResultCacheHits,
		ResultCacheSpool: meta.ResultCacheSpools,
		Algorithm:        res.Algorithm.String(),
		Exec:             res.Exec,
		Phases:           meta.Phases,
	}, nil
}

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL string `json:"sql"`
	// TimeoutMS optionally bounds the request server-side.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// queryResponse is the POST /query reply.
type queryResponse struct {
	Columns []string        `json:"columns"`
	Types   []string        `json:"types"`
	Rows    [][]interface{} `json:"rows"`
	Batch   BatchInfo       `json:"batch"`
}

// statsResponse is the GET /stats reply.
type statsResponse struct {
	Service   ServiceStats `json:"service"`
	PlanCache CacheStats   `json:"plan_cache"`
	// ResultCache reports the cross-batch result cache's hit rate and byte
	// accounting, including the warm tier's entries/bytes/hits and the
	// demotion/promotion counters (zero-valued when disabled).
	ResultCache ResultCacheStats `json:"result_cache"`
	// ResultCacheHitRate is ResultCache's batch hit fraction, precomputed
	// for dashboards.
	ResultCacheHitRate float64 `json:"result_cache_hit_rate"`
	// PhaseSeconds is the cumulative wall time per serving phase
	// (parse/lower/optimize/execute/spool), from the registry histograms.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
}

// maxQueryBodyBytes bounds a POST /query body; a larger one is answered
// 413 without being read to the end.
const maxQueryBodyBytes = 1 << 20

// ServiceHandler exposes a Service over HTTP+JSON:
//
//	POST /query  {"sql": "SELECT ..."}      -> columns, rows, batch info
//	GET  /stats                             -> batching + plan-cache stats
//
// It is the handler `mqorun -serve` serves and ExampleServe drives.
func ServiceHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req queryRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, fmt.Errorf("bad request body: %w", err))
			return
		}
		ctx := r.Context()
		if req.TimeoutMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		ans, err := s.Submit(ctx, req.SQL)
		if err != nil {
			code := http.StatusUnprocessableEntity
			if ctx.Err() != nil {
				code = http.StatusGatewayTimeout
			}
			httpError(w, code, err)
			return
		}
		resp := queryResponse{Batch: ans.Batch, Rows: make([][]interface{}, len(ans.Query.Rows))}
		for _, ci := range ans.Query.Schema {
			resp.Columns = append(resp.Columns, ci.Col.String())
			resp.Types = append(resp.Types, ci.Typ.String())
		}
		for i, row := range ans.Query.Rows {
			out := make([]interface{}, len(row))
			for j, v := range row {
				out[j] = jsonValue(v)
			}
			resp.Rows[i] = out
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		rc := s.opt.ResultCacheStats()
		writeJSON(w, http.StatusOK, statsResponse{
			Service:            s.Stats(),
			PlanCache:          s.opt.CacheStats(),
			ResultCache:        rc,
			ResultCacheHitRate: rc.HitRate(),
			PhaseSeconds:       phaseSecondsSnapshot(),
		})
	})
	return mux
}

// jsonValue converts a SQL value to its natural JSON representation
// (dates as days-since-epoch integers). A float that JSON has no number for
// is the string /metrics spells it with: "+Inf", "-Inf" or "NaN".
func jsonValue(v Value) interface{} {
	switch v.Typ {
	case algebra.TInt, algebra.TDate:
		return v.I
	case algebra.TFloat:
		if math.IsInf(v.F, 0) || math.IsNaN(v.F) {
			return strconv.FormatFloat(v.F, 'g', -1, 64)
		}
		return v.F
	default:
		return v.S
	}
}

// writeJSON answers code with v as JSON. v is encoded before the status is
// written, so a value JSON cannot hold is answered 500 with a JSON error,
// never a status with an empty body.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": err.Error()}) // strings always encode
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n')) // a failed write leaves no one to tell
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
