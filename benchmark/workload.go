package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"mqo"
	"mqo/internal/ssb"
)

// scale fixes the sizes a run works at. The full scale is what the
// committed numbers are measured at; the micro scale lets the smoke test
// run every workload in seconds.
type scale struct {
	// dss_batch_cold: SSB and TPC-D scale factors and buffer-pool pages.
	// Both fact tables are several times their pool, so every scan faults.
	dssSSBSF, dssTPCDSF     float64
	dssSSBPool, dssTPCDPool int
	// cache_replay_tight: scale factor, pool, result-cache RAM (below the
	// spooled working set) and warm-tier bytes.
	cacheSF             float64
	cachePool           int
	cacheRAM, cacheWarm int64
	// serve_zipf_hot: scale factor, pool and a result cache that fits.
	serveSF   float64
	servePool int
	serveRAM  int64
	// opt_scaleup: tenants in the multi-tenant BQ5 batch.
	tenants int

	bindings, variants int // DrillParam months per pass; variants per template
	prefix, closed     int // requests in the untimed prefix and in one closed-loop replay
	outstanding        int // open-loop requests in flight beyond which one is refused
	clients            int // closed-loop clients
	warmRounds         int // most replays of the schedules before the service counts as hot
	setupReps          int
	minPasses          int
}

var fullScale = scale{
	dssSSBSF: 0.005, dssTPCDSF: 0.001, dssSSBPool: 512, dssTPCDPool: 64,
	cacheSF: 0.002, cachePool: 256, cacheRAM: 64 << 10, cacheWarm: 16 << 20,
	serveSF: 0.0005, servePool: 64, serveRAM: 16 << 20,
	tenants:  6,
	bindings: 6, variants: 2,
	prefix: 200, closed: 1000, outstanding: 64, clients: 8, warmRounds: 8,
	setupReps: 3, minPasses: 2,
}

var microScale = scale{
	dssSSBSF: 0.0005, dssTPCDSF: 0.0003, dssSSBPool: 64, dssTPCDPool: 16,
	cacheSF: 0.0005, cachePool: 64, cacheRAM: 64 << 10, cacheWarm: 16 << 20,
	serveSF: 0.0005, servePool: 64, serveRAM: 16 << 20,
	tenants:  2,
	bindings: 4, variants: 1,
	prefix: 10, closed: 50, outstanding: 64, clients: 8, warmRounds: 2,
	setupReps: 1, minPasses: 1,
}

// dataSeed seeds the row generators. The data is the same on every run: at
// these scale factors a dimension table has ten to a few hundred rows, and
// redrawing them changes the work a query does by half, which would drown
// any change to the code. The workload seed drives orders, constants,
// draws and gaps instead.
const dataSeed = 11

// opTimeout bounds one operation; an operation that exceeds it has failed.
const opTimeout = 5 * time.Second

// sloLimit is the latency limit of the service's requests, counted from
// the time a request was due.
const sloLimit = 100 * time.Millisecond

// Open-loop rates in requests per second. The end-to-end run offers
// sloRate alone; the traced run offers each of traceRates in turn.
const sloRate = 20

var traceRates = []int{10, 20, 40, 80}

// runEnv is what a workload gets: generated inputs, sizes, how long to
// measure, and the oracle and tracer to report to. It carries no seed and
// no workload name.
type runEnv struct {
	in      Inputs
	shape   Shape
	sc      scale
	seconds float64
	trace   bool
	orc     *oracle
	tr      *tracer // nil unless trace
	calibS  float64 // lowest calibration-kernel time seen, see calib.go
}

// shapeFor sizes the generated inputs for a run.
func shapeFor(sc scale, seconds float64, trace bool) Shape {
	sh := Shape{
		DSSBatches: ssb.NumFlights + 1,
		OptCells:   len(optBatchNames(sc)) * len(mqo.Algorithms()),
		Bindings:   sc.bindings, Variants: sc.variants,
		Prefix: sc.prefix, Closed: sc.closed,
	}
	if trace {
		sh.OpenRates, sh.OpenSeconds = traceRates, seconds/float64(len(traceRates)+1)
	} else {
		sh.OpenRates, sh.OpenSeconds = []int{sloRate}, seconds/3
	}
	return sh
}

// workloads maps the names BENCHMARK.json declares to the code that runs
// them.
var workloads = map[string]func(context.Context, *runEnv, *measure) (*opLog, error){
	"dss_batch_cold":     runDSS,
	"opt_scaleup":        runOpt,
	"cache_replay_tight": runCacheReplay,
	"serve_zipf_hot":     runServe,
}

// opLog accounts for the operations of a run: how many were attempted, how
// many failed (error, timeout, refusal or a wrong row set), how many were
// correct within their latency limit, and for each operation of a pass its
// lowest latency over the finished passes. Every pass runs the same
// operations in the same order.
type opLog struct {
	attempted, failed, within int
	ms                        []float64 // latencies of the pass under way, in ms
	best                      []float64 // per operation, the lowest over finished passes
	passes                    int
	p50From                   int // first operation of a pass that counts towards p50_ms
	timedOps                  int
	allocated                 uint64
}

func (l *opLog) record(d time.Duration, ok bool, limit time.Duration) {
	l.attempted++
	l.timedOps++
	l.ms = append(l.ms, float64(d)/1e6)
	switch {
	case !ok:
		l.failed++
	case d <= limit:
		l.within++
	}
}

// endPass closes the pass under way.
func (l *opLog) endPass() {
	if l.best == nil {
		l.best = slices.Clone(l.ms)
	}
	for i, v := range l.ms[:min(len(l.ms), len(l.best))] {
		l.best[i] = min(l.best[i], v)
	}
	l.ms = l.ms[:0]
	l.passes++
}

// bestPassS is the time of a pass in which every operation took its lowest
// latency over the passes run.
func (l *opLog) bestPassS() float64 {
	var sum float64
	for _, v := range l.best {
		sum += v
	}
	return sum / 1e3
}

// untimed returns a log that keeps l's counts but none of its timings:
// warm-up operations are attempted and checked like any other, but do not
// enter the timings.
func (l *opLog) untimed() *opLog {
	return &opLog{attempted: l.attempted, failed: l.failed, within: l.within}
}

// absorb adds the counts of another log of the same run.
func (l *opLog) absorb(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.within += o.within
}

// timedOp runs f under the operation timeout and returns its latency and
// the heap bytes allocated meanwhile.
func timedOp(ctx context.Context, f func(context.Context) error) (time.Duration, uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	before := allocBytes()
	start := time.Now()
	err := f(ctx)
	d := time.Since(start)
	return d, allocBytes() - before, err
}

// setEndToEnd sets the metrics the pass-based workloads report the same
// way. On a shared machine interference comes in bursts that slow a stretch
// of a run down and never speed one up, so the steadiest estimate of what
// the code costs takes each operation at its best over the passes: pass_s
// is the sum of those, p50_ms their median.
func (l *opLog) setEndToEnd(m *measure) {
	m.set("pass_s", l.bestPassS(), l.passes)
	m.set("p50_ms", median(l.best[l.p50From:]), l.passes*(len(l.best)-l.p50From))
	m.set("alloc_mb_per_op", float64(l.allocated)/float64(l.timedOps)/(1<<20), l.timedOps)
	m.set("slo_attainment", float64(l.within)/float64(l.attempted), l.attempted)
}

// medianSetup sets up n times, keeps the last result and returns the
// median set-up time. discard, when not nil, releases a result that is not
// kept.
func medianSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// repeatFor calls pass until at least minPasses have run and the measuring
// time is used up.
func repeatFor(seconds float64, minPasses int, pass func()) {
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
		pass()
	}
}

// measurePasses is the timed part of the pass-based workloads. The first
// pass is set-up, not steady state — it builds the indexes plans probe and
// fills what is lazily filled — and is added to setupS as setup_s. Passes
// then run for the measuring time; in a traced run plain and traced passes
// alternate, so that both see the same heap and the same interference and
// their difference is the tracing. It sets the end-to-end metrics and
// returns the plain log, holding the counts of both, and the traced one.
func (e *runEnv) measurePasses(m *measure, setupS float64, p50From int, pass func(traced bool, log *opLog)) (log, tlog *opLog) {
	log = &opLog{}
	start := time.Now()
	pass(false, log)
	m.set("setup_s", setupS+time.Since(start).Seconds(), e.sc.setupReps)
	log = log.untimed()
	log.p50From = p50From

	tlog = &opLog{}
	repeatFor(e.seconds, e.sc.minPasses, func() {
		pass(false, log)
		if e.trace {
			pass(true, tlog)
		}
	})
	log.setEndToEnd(m)
	e.scaleTimes(m, "setup_s", "pass_s", "p50_ms")
	log.absorb(tlog)
	return log, tlog
}
