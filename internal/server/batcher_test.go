package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/exec"
	"mqo/internal/storage"
)

// echoRunner returns, for every query, one row holding the query's
// registered id, so tests can verify each waiter got exactly its own
// query's result back. It also records the batches it saw.
type echoRunner struct {
	mu      sync.Mutex
	ids     map[*algebra.Tree]int64
	batches [][]int64
	delay   time.Duration
	err     error
}

func newEchoRunner() *echoRunner { return &echoRunner{ids: map[*algebra.Tree]int64{}} }

func (e *echoRunner) register() *algebra.Tree {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := &algebra.Tree{}
	e.ids[q] = int64(len(e.ids) + 1)
	return q
}

func (e *echoRunner) run(ctx context.Context, queries []*algebra.Tree) ([]exec.QueryResult, BatchInfo, error) {
	if e.delay > 0 {
		select {
		case <-time.After(e.delay):
		case <-ctx.Done():
			return nil, BatchInfo{}, ctx.Err()
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, BatchInfo{}, e.err
	}
	var seen []int64
	var results []exec.QueryResult
	for _, q := range queries {
		id, ok := e.ids[q]
		if !ok {
			return nil, BatchInfo{}, errors.New("unknown query")
		}
		seen = append(seen, id)
		results = append(results, exec.QueryResult{
			Rows: []storage.Row{{algebra.IntVal(id)}},
		})
	}
	e.batches = append(e.batches, seen)
	return results, BatchInfo{NoShareCost: float64(len(queries)), Cost: 1, Algorithm: "echo"}, nil
}

func (e *echoRunner) id(q *algebra.Tree) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ids[q]
}

func (e *echoRunner) batchSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sizes []int
	for _, b := range e.batches {
		sizes = append(sizes, len(b))
	}
	return sizes
}

// submitN fires n concurrent Submits and waits for them all.
func submitN(t *testing.T, b *Batcher, e *echoRunner, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		q := e.register()
		id := e.id(q)
		wg.Add(1)
		go func() {
			defer wg.Done()
			compiled := PhaseTimes{Parse: time.Duration(id), Lower: time.Duration(2 * id)}
			resp, err := b.Submit(context.Background(), q, compiled)
			if err != nil {
				errs <- err
				return
			}
			if got := resp.Query.Rows[0][0].I; got != id {
				errs <- fmt.Errorf("query %d got row %d", id, got)
			}
			// The runner's batch info reaches every waiter, with the
			// waiter's own parse and lower beside it.
			if bi := resp.Batch; bi.Algorithm != "echo" || bi.Cost != 1 || bi.NoShareCost != float64(bi.Size) ||
				bi.Phases.Parse != compiled.Parse || bi.Phases.Lower != compiled.Lower {
				errs <- fmt.Errorf("query %d: batch info %+v, want the runner's and its own parse and lower", id, bi)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSizeFlush: the window flushes immediately when it fills, well before
// MaxWait.
func TestSizeFlush(t *testing.T) {
	e := newEchoRunner()
	b := NewBatcher(Config{MaxBatch: 4, MaxWait: time.Hour}, e.run)
	defer b.Close()

	done := make(chan struct{})
	go func() { submitN(t, b, e, 4); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("size-triggered flush never happened (would have waited MaxWait)")
	}
	if sizes := e.batchSizes(); len(sizes) != 1 || sizes[0] != 4 {
		t.Errorf("batches %v, want one batch of 4", sizes)
	}
	if s := b.Stats(); s.Batches != 1 || s.Queries != 4 || s.SizeHist[4] != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestWindowFlush: a window that never fills still flushes after MaxWait.
func TestWindowFlush(t *testing.T) {
	e := newEchoRunner()
	b := NewBatcher(Config{MaxBatch: 100, MaxWait: 20 * time.Millisecond}, e.run)
	defer b.Close()

	start := time.Now()
	submitN(t, b, e, 3)
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Errorf("flushed after %s, before the window aged out", waited)
	}
	if sizes := e.batchSizes(); len(sizes) != 1 || sizes[0] != 3 {
		t.Errorf("batches %v, want one batch of 3", sizes)
	}
	// The next submission opens a fresh window with its own timer.
	submitN(t, b, e, 1)
	if sizes := e.batchSizes(); len(sizes) != 2 {
		t.Errorf("second window never flushed: %v", sizes)
	}
}

// TestCancelledWaiterDoesNotFailBatch: one waiter giving up neither fails
// nor stalls the batch for the others, and the departed query is not
// executed.
func TestCancelledWaiterDoesNotFailBatch(t *testing.T) {
	e := newEchoRunner()
	b := NewBatcher(Config{MaxBatch: 100, MaxWait: 50 * time.Millisecond}, e.run)
	defer b.Close()

	quitter := e.register()
	qctx, qcancel := context.WithCancel(context.Background())
	quitErr := make(chan error, 1)
	go func() {
		_, err := b.Submit(qctx, quitter, PhaseTimes{})
		quitErr <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the quitter join the window
	qcancel()

	submitN(t, b, e, 2) // join the same window, then wait for the flush
	if err := <-quitErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter got %v, want context.Canceled", err)
	}
	if sizes := e.batchSizes(); len(sizes) != 1 || sizes[0] != 2 {
		t.Errorf("batches %v, want one batch of 2 (quitter dropped)", sizes)
	}
	if s := b.Stats(); s.Cancelled != 1 || s.Queries != 2 {
		t.Errorf("stats %+v, want 1 cancelled / 2 executed", s)
	}
}

// TestAllWaitersGoneCancelsBatch: a dispatched batch's context ends once its
// last waiter has given up, and not while any waiter still listens. A window
// of one and a stored query run under their waiter's own context; a window of
// several under one its waiters' departures count down.
func TestAllWaitersGoneCancelsBatch(t *testing.T) {
	for _, tc := range []struct {
		name          string
		stored        bool
		waiters, quit int
	}{
		{"window=1", false, 1, 1},
		{"window=3/all-leave", false, 3, 3},
		{"window=3/two-leave", false, 3, 2},
		{"stored", true, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			started := make(chan context.Context, 1)
			release := make(chan struct{})
			run := func(ctx context.Context, queries []*algebra.Tree) ([]exec.QueryResult, BatchInfo, error) {
				started <- ctx
				select {
				case <-ctx.Done():
					return nil, BatchInfo{}, ctx.Err()
				case <-release:
					return make([]exec.QueryResult, len(queries)), BatchInfo{}, nil
				}
			}
			b := NewBatcher(Config{MaxBatch: tc.waiters, MaxWait: time.Hour}, run)
			defer b.Close()
			var once sync.Once
			finish := func() { once.Do(func() { close(release) }) }
			defer finish() // a run the test gave up on still ends, so Close returns
			submit := b.Submit
			if tc.stored {
				submit = b.SubmitStored
			}
			cancels := make([]context.CancelFunc, tc.waiters)
			errs := make(chan error, tc.waiters)
			for i := range cancels {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cancels[i] = cancel
				go func() {
					_, err := submit(ctx, &algebra.Tree{}, PhaseTimes{})
					errs <- err
				}()
			}
			var ctx context.Context
			select {
			case ctx = <-started:
			case <-time.After(5 * time.Second):
				t.Fatal("the batch never ran")
			}
			for _, cancel := range cancels[:tc.quit] {
				cancel()
			}
			if tc.quit == tc.waiters {
				select {
				case <-ctx.Done():
					if !errors.Is(ctx.Err(), context.Canceled) {
						t.Errorf("runner's context ended with %v, want context.Canceled", ctx.Err())
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the batch's context never ended after every waiter left")
				}
			} else {
				time.Sleep(20 * time.Millisecond) // time for a wrong cancellation to land
				if err := ctx.Err(); err != nil {
					t.Errorf("the batch's context ended (%v) with %d waiter(s) still listening", err, tc.waiters-tc.quit)
				}
				finish()
			}
			answered := 0
			for range tc.waiters {
				err := <-errs
				switch {
				case err == nil:
					answered++
				case !errors.Is(err, context.Canceled):
					t.Errorf("a waiter got %v, want an answer or context.Canceled", err)
				}
			}
			if answered != tc.waiters-tc.quit {
				t.Errorf("%d waiters answered, want the %d that stayed", answered, tc.waiters-tc.quit)
			}
		})
	}
}

// TestRunnerErrorReachesEveryWaiter: a failed batch reports the error to
// each of its waiters.
func TestRunnerErrorReachesEveryWaiter(t *testing.T) {
	boom := errors.New("boom")
	e := newEchoRunner()
	e.err = boom
	b := NewBatcher(Config{MaxBatch: 3, MaxWait: time.Hour}, e.run)
	defer b.Close()

	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 3; i++ {
		q := e.register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), q, PhaseTimes{}); errors.Is(err, boom) {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 3 {
		t.Errorf("%d waiters saw the batch error, want 3", failures.Load())
	}
	if s := b.Stats(); s.Errors != 3 || s.Batches != 0 {
		t.Errorf("stats %+v", s)
	}
}

// TestCloseFlushesAndRejects: Close dispatches the open window, waits for
// it, and makes later Submits fail with ErrClosed.
func TestCloseFlushesAndRejects(t *testing.T) {
	e := newEchoRunner()
	b := NewBatcher(Config{MaxBatch: 100, MaxWait: time.Hour}, e.run)

	done := make(chan error, 1)
	q := e.register()
	go func() {
		_, err := b.Submit(context.Background(), q, PhaseTimes{})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	b.Close()
	if err := <-done; err != nil {
		t.Errorf("waiter of the final flush got %v", err)
	}
	if _, err := b.Submit(context.Background(), e.register(), PhaseTimes{}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Submit got %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// gateRunner answers like echoRunner but holds every run until released,
// reporting each run's start and counting how many are in flight at once.
type gateRunner struct {
	*echoRunner
	started chan struct{} // one send per run begun; sized to the test's sends
	release chan struct{} // closed to let every held run finish
	inFlight,
	maxInFlight atomic.Int64
}

func (g *gateRunner) run(ctx context.Context, queries []*algebra.Tree) ([]exec.QueryResult, BatchInfo, error) {
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for {
		seen := g.maxInFlight.Load()
		if n <= seen || g.maxInFlight.CompareAndSwap(seen, n) {
			break
		}
	}
	g.started <- struct{}{}
	<-g.release
	return g.echoRunner.run(ctx, queries)
}

// TestSubmitStoredSkipsTheWindow: a query submitted as stored runs at once,
// alone — it neither waits for MaxWait nor joins the queries pending in the
// open window — on the worker slots every batch shares, and is counted.
func TestSubmitStoredSkipsTheWindow(t *testing.T) {
	const stored, workers = 6, 2
	g := &gateRunner{echoRunner: newEchoRunner(), started: make(chan struct{}, stored+1), release: make(chan struct{})}
	b := NewBatcher(Config{MaxBatch: 100, MaxWait: time.Hour, Workers: workers}, g.run)

	windowed := make(chan *Response, 1)
	go func() {
		resp, err := b.Submit(context.Background(), g.register(), PhaseTimes{})
		if err != nil {
			t.Error(err)
		}
		windowed <- resp
	}()
	for b.Stats().Submitted < 1 { // the window is open and holds one query
		time.Sleep(100 * time.Microsecond)
	}
	resps := make(chan *Response, stored)
	for i := 0; i < stored; i++ {
		q := g.register()
		go func() {
			resp, err := b.SubmitStored(context.Background(), q, PhaseTimes{})
			if err != nil {
				t.Error(err)
			} else if got := resp.Query.Rows[0][0].I; got != g.id(q) {
				t.Errorf("query %d got row %d", g.id(q), got)
			}
			resps <- resp
		}()
	}
	for i := 0; i < workers; i++ {
		<-g.started // they run without anyone flushing a window
	}
	close(g.release)
	for i := 0; i < stored; i++ {
		if resp := <-resps; resp != nil && (!resp.Batch.Stored || resp.Batch.Size != 1) {
			t.Errorf("stored submission answered by %+v, want a stored batch of one", resp.Batch)
		}
	}
	if got := g.maxInFlight.Load(); got > workers {
		t.Errorf("%d runs in flight at once, want at most the %d workers", got, workers)
	}
	b.Close() // flushes the window the first query is still in
	if resp := <-windowed; resp != nil && (resp.Batch.Stored || resp.Batch.Size != 1) {
		t.Errorf("windowed submission answered by %+v, want an ordinary batch of one", resp.Batch)
	}
	if s := b.Stats(); s.Stored != stored || s.Batches != stored+1 || s.Queries != stored+1 || s.Submitted != stored+1 {
		t.Errorf("stats %+v, want %d stored among %d batches", s, stored, stored+1)
	}
}

// TestCloseWaitsForStoredRuns: Close during runs that skipped the window
// waits for them — they finish with their answers — and refuses later ones.
func TestCloseWaitsForStoredRuns(t *testing.T) {
	const n = 4
	g := &gateRunner{echoRunner: newEchoRunner(), started: make(chan struct{}, n), release: make(chan struct{})}
	b := NewBatcher(Config{Workers: n}, g.run)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		q := g.register()
		go func() {
			_, err := b.SubmitStored(context.Background(), q, PhaseTimes{})
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		<-g.started
	}
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	for {
		// Close has taken effect once it refuses a submission. One it still
		// accepts finds every worker slot held, so it gives up on its own.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := b.SubmitStored(ctx, g.register(), PhaseTimes{})
		cancel()
		if errors.Is(err, ErrClosed) {
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("submission during Close got %v, want a timeout or ErrClosed", err)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while stored runs were in flight")
	default:
	}
	close(g.release)
	<-closed
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("in-flight stored run got %v, want its answer", err)
		}
	}
	if _, err := b.Submit(context.Background(), g.register(), PhaseTimes{}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Submit got %v, want ErrClosed", err)
	}
}

// TestStress hammers the batcher from many goroutines (run with -race):
// every submission must come back with its own id, and coalescing must
// produce fewer batches than submissions.
func TestStress(t *testing.T) {
	e := newEchoRunner()
	e.delay = 200 * time.Microsecond
	b := NewBatcher(Config{MaxBatch: 8, MaxWait: time.Millisecond, Workers: 4}, e.run)
	defer b.Close()

	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		q := e.register()
		id := e.id(q)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := b.Submit(context.Background(), q, PhaseTimes{})
			if err != nil {
				errs <- err
				return
			}
			if got := resp.Query.Rows[0][0].I; got != id {
				errs <- fmt.Errorf("query %d got row %d", id, got)
			}
			if resp.Batch.Size < 1 || resp.Batch.Seq < 1 {
				errs <- fmt.Errorf("bad batch info %+v", resp.Batch)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := b.Stats()
	if s.Queries != n || s.Submitted != n {
		t.Errorf("stats %+v, want %d queries", s, n)
	}
	if s.Batches >= n {
		t.Errorf("%d batches for %d submissions: no coalescing", s.Batches, n)
	}
	var hist int64
	for _, c := range s.SizeHist {
		hist += c
	}
	if hist != s.Batches {
		t.Errorf("size histogram sums to %d, want %d batches", hist, s.Batches)
	}
}
