// Package server implements the concurrent query service behind mqo.Serve:
// an adaptive micro-batching scheduler that coalesces independently
// submitted queries into multi-query-optimization batches.
//
// The paper's algorithms win by optimizing queries *together*; production
// traffic arrives as independent concurrent requests. The Batcher bridges
// the two: a submission joins the currently open batching window, the
// window flushes when it fills (MaxBatch) or ages out (MaxWait), the
// coalesced batch runs through one optimize+execute pass, and each waiter
// receives exactly its own query's rows. A fixed pool of workers takes
// flushed batches off a queue, so the next window's optimization overlaps
// the previous window's execution.
//
// A window exists to find sharing partners. A query whose whole answer is
// already stored has nothing to share, so it skips the window
// (SubmitStored): it runs at once, as a batch of one, on the same worker
// pool and through the same accounting.
package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/exec"
	"mqo/internal/obs"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: batcher closed")

// Config tunes the batching window and worker pool. The zero value is
// usable: Normalize fills in defaults.
type Config struct {
	// MaxBatch flushes the window immediately once this many queries are
	// pending (default 8).
	MaxBatch int
	// MaxWait is the longest the first query of a window waits before the
	// window flushes regardless of size (default 2ms).
	MaxWait time.Duration
	// Workers is how many worker goroutines run batches, so how many may be
	// in flight at once (default 2: one optimizing while another executes).
	Workers int
}

// Normalize returns cfg with defaults filled in.
func (cfg Config) Normalize() Config {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	return cfg
}

// PhaseTimes breaks a served query's lifecycle into its phases. Parse and
// Lower are per-query (measured before the query joins a batching window);
// Optimize, Execute and Spool are properties of the whole batch the query
// rode in.
type PhaseTimes struct {
	// Parse is SQL lexing+parsing; Lower is algebra lowering against the
	// catalog. Both are zero for a text the session had compiled already.
	Parse time.Duration `json:"parse_ns"`
	Lower time.Duration `json:"lower_ns"`
	// Optimize covers the plan-cache lookup and, on a miss, DAG construction
	// and the plan search; Execute is the plan's measured execution wall time; Spool is
	// result-cache bookkeeping (spool planning and commit).
	Optimize time.Duration `json:"optimize_ns"`
	Execute  time.Duration `json:"execute_ns"`
	Spool    time.Duration `json:"spool_ns"`
}

// Runner optimizes and executes one coalesced batch: one result per query,
// in the order the queries were handed to it, and the batch's BatchInfo with
// what the run knows — costs, cache traffic, algorithm, the optimize,
// execute and spool phases and the execution profile. The batcher fills in
// the rest per waiter (Seq, Size, Stored, Wait, parse and lower). It is
// called from worker goroutines and must be safe for concurrent use. The
// context ends when every waiter of the batch has given up (batchContext).
type Runner func(ctx context.Context, queries []*algebra.Tree) ([]exec.QueryResult, BatchInfo, error)

// BatchInfo describes the batch a query was answered by.
type BatchInfo struct {
	// Seq is the batch's sequence number (1-based, per Batcher).
	Seq int64 `json:"seq"`
	// Size is how many queries shared the batch.
	Size int `json:"size"`
	// Cost and NoShareCost are the batch's estimated shared-plan and
	// no-sharing (Volcano) costs, in cost-model seconds.
	Cost        float64 `json:"cost"`
	NoShareCost float64 `json:"no_share_cost"`
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool `json:"cache_hit"`
	// ResultCacheHits / ResultCacheSpool report the batch's result-cache
	// traffic: spooled tables read by the executed plan, and new results
	// spooled for future batches.
	ResultCacheHits  int `json:"result_cache_hits"`
	ResultCacheSpool int `json:"result_cache_spools"`
	// Algorithm names the optimization strategy used.
	Algorithm string `json:"algorithm"`
	// Stored reports that the query skipped the batching window: when it
	// arrived the session already held a plan reading its whole answer from
	// the result cache, so it ran at once as a batch of one.
	Stored bool `json:"stored"`
	// Wait is how long the query waited for its window to flush.
	Wait time.Duration `json:"wait_ns"`
	// Phases is the per-phase timing breakdown of the serving lifecycle
	// (parse/lower for this query, optimize/execute/spool for its batch).
	Phases PhaseTimes `json:"phases"`
	// Exec is the measured execution profile of the whole batch run.
	Exec exec.RunStats `json:"exec"`
}

// Response is the per-query outcome of a batched run.
type Response struct {
	// Query holds this submission's rows and schema — only its own, even
	// though the batch computed several queries' results in one run.
	Query exec.QueryResult
	// Batch describes the coalesced batch that produced the answer.
	Batch BatchInfo
}

// Stats is the service's accounting, shaped for JSON (GET /stats).
type Stats struct {
	// Submitted counts queries accepted by Submit.
	Submitted int64 `json:"submitted"`
	// Batches counts executed batches; Queries counts the queries they
	// carried (excluding ones cancelled before dispatch).
	Batches int64 `json:"batches"`
	Queries int64 `json:"queries"`
	// Stored counts the queries answered without a window (BatchInfo.Stored),
	// each a batch of one: on a hot service it is what pulls
	// Queries / Batches towards 1.
	Stored int64 `json:"stored"`
	// Cancelled counts queries whose waiter gave up before their batch
	// was dispatched; Errors counts queries whose batch failed.
	Cancelled int64 `json:"cancelled"`
	Errors    int64 `json:"errors"`
	// SizeHist is the batch-size distribution: SizeHist[k] batches
	// carried exactly k queries.
	SizeHist map[int]int64 `json:"size_hist"`
	MaxBatch int           `json:"max_batch_seen"`
	// CostShared / CostNoShare total the estimated costs of the executed
	// shared plans versus the no-sharing baselines for the same batches;
	// CostSaved is the difference: estimated optimizer-cost-model seconds
	// won by coalescing traffic into MQO batches.
	CostShared  float64 `json:"cost_shared"`
	CostNoShare float64 `json:"cost_no_share"`
	CostSaved   float64 `json:"cost_saved"`
	// PlanCacheHits counts batches answered from the session plan cache.
	PlanCacheHits int64 `json:"plan_cache_hits"`
	// ResultCacheHits totals spooled-table reads across batches;
	// ResultCacheSpools totals results admitted to the cross-batch store.
	ResultCacheHits   int64 `json:"result_cache_hits"`
	ResultCacheSpools int64 `json:"result_cache_spools"`
}

// request is one in-flight submission.
type request struct {
	ctx      context.Context
	query    *algebra.Tree
	compiled PhaseTimes // the query's parse and lower, before it was submitted
	enqueued time.Time
	done     chan outcome // buffered(1): runBatch never blocks on a waiter
}

type outcome struct {
	resp *Response
	err  error
}

// Batcher coalesces Submit calls into batches and runs them on Config.Workers
// long-lived worker goroutines, started by NewBatcher and stopped by Close. A
// worker keeps the stack a batch grew, so the next batch does not grow one
// again. Besides the workers, the only goroutine is the per-window flush
// timer: a batch starts none (batchContext).
//
// The mutex guards only the batching window (pending, timer, generation,
// closed) and the queue of flushed batches; nothing blocks while holding it.
// All accounting is registry-backed lock-free atomics, so the serving hot
// path never serializes batch completions on a stats lock and a /stats or
// /metrics scrape never blocks a flush.
type Batcher struct {
	cfg Config
	run Runner

	mu      sync.Mutex
	pending []*request
	timer   *time.Timer // flush timer of the open window, nil when none
	winGen  int64       // bumped on every flush; stale timers check it
	closed  bool
	queue   []job      // flushed batches no worker has taken yet, oldest first
	ready   *sync.Cond // on mu: the queue grew, or the batcher closed

	seq atomic.Int64

	// Lock-free accounting, registered on the default obs registry.
	submitted     *obs.Counter
	batches       *obs.Counter
	queries       *obs.Counter
	stored        *obs.Counter
	cancelled     *obs.Counter
	errored       *obs.Counter
	planCacheHits *obs.Counter
	rcHits        *obs.Counter
	rcSpools      *obs.Counter
	costShared    *obs.FloatCounter
	costNoShare   *obs.FloatCounter
	costSaved     *obs.FloatCounter
	maxBatch      *obs.Gauge
	sizeHist      []atomic.Int64 // index = batch size (≤ cfg.MaxBatch)
	queueWait     *obs.Histogram
	batchSizeH    *obs.Histogram
	batchSeconds  *obs.Histogram

	workers sync.WaitGroup
}

// job is one batch waiting for a worker: a flushed window, or one query that
// skipped it (stored).
type job struct {
	batch   []*request
	stored  bool
	flushed time.Time // the batching wait ends here; queue+run time is Exec's
}

// NewBatcher creates a batcher over the given runner. Its counters are
// registered on the default obs registry under mqo_server_* (a newer
// batcher instance replaces an older one on the scrape).
func NewBatcher(cfg Config, run Runner) *Batcher {
	cfg = cfg.Normalize()
	reg := obs.Default()
	b := &Batcher{
		cfg: cfg,
		run: run,

		submitted:     reg.RegisterCounter("mqo_server_submitted_total", "Queries accepted by Submit.", &obs.Counter{}),
		batches:       reg.RegisterCounter("mqo_server_batches_total", "Coalesced batches executed.", &obs.Counter{}),
		queries:       reg.RegisterCounter("mqo_server_queries_total", "Queries carried by executed batches.", &obs.Counter{}),
		stored:        reg.RegisterCounter("mqo_server_stored_total", "Queries answered without a batching window: their answer was already stored.", &obs.Counter{}),
		cancelled:     reg.RegisterCounter("mqo_server_cancelled_total", "Queries whose waiter gave up before dispatch.", &obs.Counter{}),
		errored:       reg.RegisterCounter("mqo_server_errors_total", "Queries whose batch failed.", &obs.Counter{}),
		planCacheHits: reg.RegisterCounter("mqo_server_plan_cache_hits_total", "Batches answered from the session plan cache.", &obs.Counter{}),
		rcHits:        reg.RegisterCounter("mqo_server_result_cache_hits_total", "Spooled-table reads across batches.", &obs.Counter{}),
		rcSpools:      reg.RegisterCounter("mqo_server_result_cache_spools_total", "Results admitted to the cross-batch store.", &obs.Counter{}),
		costShared:    reg.RegisterFloatCounter("mqo_server_cost_shared_seconds_total", "Estimated cost of executed shared plans.", &obs.FloatCounter{}),
		costNoShare:   reg.RegisterFloatCounter("mqo_server_cost_no_share_seconds_total", "Estimated cost of the no-sharing baselines.", &obs.FloatCounter{}),
		costSaved:     reg.RegisterFloatCounter("mqo_server_cost_saved_seconds_total", "Estimated cost-model seconds saved by batching.", &obs.FloatCounter{}),
		maxBatch:      reg.RegisterGauge("mqo_server_max_batch", "Largest batch executed.", &obs.Gauge{}),
		sizeHist:      make([]atomic.Int64, cfg.MaxBatch+1),
		queueWait:     reg.RegisterHistogram("mqo_server_queue_wait_seconds", "Time a query waited for its batching window to flush.", &obs.Histogram{}),
		batchSizeH:    reg.RegisterHistogram("mqo_server_batch_size", "Executed batch sizes (queries per batch).", &obs.Histogram{}),
		batchSeconds:  reg.RegisterHistogram("mqo_server_batch_seconds", "Batch latency from window flush to results demuxed.", &obs.Histogram{}),
	}
	b.ready = sync.NewCond(&b.mu)
	b.workers.Add(cfg.Workers)
	for range cfg.Workers {
		go b.work()
	}
	return b
}

// Submit enqueues one query and blocks until its batch has run (returning
// this query's rows) or ctx is done (returning ctx.Err()). A waiter that
// gives up does not fail its batch: the batch still runs for the others,
// and is only cancelled once every waiter has gone. compiled carries the
// query's parse and lower times into its answer's phases.
func (b *Batcher) Submit(ctx context.Context, q *algebra.Tree, compiled PhaseTimes) (*Response, error) {
	return b.submit(ctx, q, compiled, false)
}

// SubmitStored is Submit for a query the caller knows to have its whole
// answer stored: it joins no window and goes straight to the workers' queue
// as a batch of one — counted like any batch, waited for by Close and
// refused after it.
func (b *Batcher) SubmitStored(ctx context.Context, q *algebra.Tree, compiled PhaseTimes) (*Response, error) {
	return b.submit(ctx, q, compiled, true)
}

func (b *Batcher) submit(ctx context.Context, q *algebra.Tree, compiled PhaseTimes, stored bool) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := &request{ctx: ctx, query: q, compiled: compiled, enqueued: time.Now(), done: make(chan outcome, 1)}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.submitted.Inc()
	if stored {
		b.dispatchLocked([]*request{req}, true)
	} else {
		b.enqueueLocked(req)
	}
	b.mu.Unlock()

	select {
	case out := <-req.done:
		return out.resp, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// enqueueLocked adds a request to the open window, flushing the window if
// that fills it. Callers hold b.mu.
func (b *Batcher) enqueueLocked(req *request) {
	b.pending = append(b.pending, req)
	if len(b.pending) >= b.cfg.MaxBatch {
		b.flushLocked()
	} else if b.timer == nil {
		// First query of a new window: arm the age-out flush. The timer
		// captures the window generation so a callback that loses the
		// race against a size flush cannot touch the next window.
		gen := b.winGen
		b.timer = time.AfterFunc(b.cfg.MaxWait, func() { b.flushWindow(gen) })
	}
}

// flushWindow is the timer callback: flush whatever the window holds —
// unless the window the timer was armed for is already gone (a size
// flush won the race), in which case the next window's timer stands.
func (b *Batcher) flushWindow(gen int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.winGen != gen {
		return
	}
	b.timer = nil
	if len(b.pending) > 0 {
		b.flushLocked()
	}
}

// flushLocked closes the open window and dispatches its batch. Callers
// hold b.mu.
func (b *Batcher) flushLocked() {
	b.winGen++
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(batch) == 0 {
		return
	}
	b.dispatchLocked(batch, false)
}

// dispatchLocked queues a batch for the workers. Callers hold b.mu.
func (b *Batcher) dispatchLocked(batch []*request, stored bool) {
	b.queue = append(b.queue, job{batch: batch, stored: stored, flushed: time.Now()})
	b.ready.Signal()
}

// work is one worker: it runs queued batches, oldest first, until the
// batcher is closed and the queue is empty.
func (b *Batcher) work() {
	defer b.workers.Done()
	b.mu.Lock()
	for {
		for len(b.queue) == 0 && !b.closed {
			b.ready.Wait()
		}
		if len(b.queue) == 0 {
			b.mu.Unlock()
			return
		}
		// Shift rather than reslice, so the queue keeps its capacity and a
		// dispatch to an idle worker appends without allocating.
		j := b.queue[0]
		n := copy(b.queue, b.queue[1:])
		b.queue[n] = job{}
		b.queue = b.queue[:n]
		b.mu.Unlock()
		b.runBatch(j.batch, j.stored, j.flushed)
		b.mu.Lock()
	}
}

// runBatch executes one flushed batch — or, stored set, one query that
// skipped the window — and demultiplexes per-query results back to the
// waiters.
func (b *Batcher) runBatch(batch []*request, stored bool, flushed time.Time) {
	// Drop requests whose waiter already gave up; they have stopped
	// listening, and optimizing their query helps no one.
	live := batch[:0]
	var cancelled int64
	for _, req := range batch {
		if req.ctx.Err() != nil {
			cancelled++
			continue
		}
		live = append(live, req)
	}
	b.cancelled.Add(cancelled)
	if len(live) == 0 {
		return
	}
	for _, req := range live {
		b.queueWait.ObserveDuration(flushed.Sub(req.enqueued))
	}

	ctx, release := batchContext(live)
	defer release()

	queries := make([]*algebra.Tree, len(live))
	for i, req := range live {
		queries[i] = req.query
	}
	seq := b.seq.Add(1)

	results, info, err := b.run(ctx, queries)
	if err == nil && len(results) != len(queries) {
		err = errors.New("server: runner returned wrong result count")
	}
	b.batchSeconds.ObserveDuration(time.Since(flushed))

	if err != nil {
		b.errored.Add(int64(len(live)))
		for _, req := range live {
			req.done <- outcome{err: err}
		}
		return
	}
	b.batches.Inc()
	b.queries.Add(int64(len(live)))
	if stored {
		b.stored.Inc()
	}
	if size := len(live); size < len(b.sizeHist) {
		b.sizeHist[size].Add(1)
	}
	b.batchSizeH.Observe(float64(len(live)))
	b.maxBatch.SetMax(int64(len(live)))
	b.costShared.Add(info.Cost)
	b.costNoShare.Add(info.NoShareCost)
	b.costSaved.Add(info.NoShareCost - info.Cost)
	if info.CacheHit {
		b.planCacheHits.Inc()
	}
	b.rcHits.Add(int64(info.ResultCacheHits))
	b.rcSpools.Add(int64(info.ResultCacheSpool))

	info.Seq, info.Size, info.Stored = seq, len(live), stored
	for i, req := range live {
		resp := &Response{Query: results[i], Batch: info}
		resp.Batch.Wait = flushed.Sub(req.enqueued)
		resp.Batch.Phases.Parse, resp.Batch.Phases.Lower = req.compiled.Parse, req.compiled.Lower
		req.done <- outcome{resp: resp}
	}
}

// batchContext returns the context a batch runs under, and the function that
// releases it once the run is over. The context ends when the batch's last
// waiter's does, not before: one waiter cancelling must not fail the batch
// for the rest. A batch of one runs under its waiter's own context. For
// several, each waiter's context counts down on ending, and the last to end
// cancels the batch's; nothing is started that outlives the release.
func batchContext(live []*request) (context.Context, func()) {
	if len(live) == 1 {
		return live[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(live)))
	gone := func() {
		if remaining.Add(-1) == 0 {
			cancel()
		}
	}
	stops := make([]func() bool, len(live))
	for i, req := range live {
		stops[i] = context.AfterFunc(req.ctx, gone)
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// Flush dispatches the open window immediately, without waiting for it to
// fill or age out. It does not wait for the batch to finish.
func (b *Batcher) Flush() {
	b.mu.Lock()
	b.flushLocked()
	b.mu.Unlock()
}

// Stats returns a snapshot of the accounting, assembled from the lock-free
// atomics (no mutex-guarded copy to maintain). The JSON shape is unchanged.
func (b *Batcher) Stats() Stats {
	hist := map[int]int64{}
	for k := range b.sizeHist {
		if v := b.sizeHist[k].Load(); v > 0 {
			hist[k] = v
		}
	}
	return Stats{
		Submitted:         b.submitted.Value(),
		Batches:           b.batches.Value(),
		Queries:           b.queries.Value(),
		Stored:            b.stored.Value(),
		Cancelled:         b.cancelled.Value(),
		Errors:            b.errored.Value(),
		SizeHist:          hist,
		MaxBatch:          int(b.maxBatch.Value()),
		CostShared:        b.costShared.Value(),
		CostNoShare:       b.costNoShare.Value(),
		CostSaved:         b.costSaved.Value(),
		PlanCacheHits:     b.planCacheHits.Value(),
		ResultCacheHits:   b.rcHits.Value(),
		ResultCacheSpools: b.rcSpools.Value(),
	}
}

// Close flushes the open window, waits for every queued and in-flight
// batch, stops the workers, and makes further Submits fail with ErrClosed.
// Close is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.flushLocked()
		b.ready.Broadcast()
	}
	b.mu.Unlock()
	b.workers.Wait()
}
