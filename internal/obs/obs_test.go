package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("t_gauge", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered gauge to %d", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("SetMax = %d, want 11", got)
	}
	f := r.FloatCounter("t_float_total", "help")
	f.Add(0.5)
	f.Add(0.25)
	if got := f.Value(); got != 0.75 {
		t.Fatalf("float counter = %g, want 0.75", got)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help", L("k", "v"))
	b := r.Counter("same_total", "help", L("k", "v"))
	if a != b {
		t.Fatal("re-registration returned a different instance")
	}
	c := r.Counter("same_total", "help", L("k", "other"))
	if a == c {
		t.Fatal("different labels returned the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	r.Gauge("same_total", "help", L("k", "v"))
}

// TestHistogramQuantileVsSort checks quantile extraction against a reference
// sort: the histogram's answer must land within one bucket's relative error
// (buckets double, so a factor-2 band) of the exact order statistic.
func TestHistogramQuantileVsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	vals := make([]float64, 20000)
	for i := range vals {
		// log-uniform over ~1µs..10s, the histogram's designed range
		v := math.Exp(rng.Float64()*math.Log(1e7)) * 1e-6
		vals[i] = v
		h.Observe(v)
	}
	sort.Float64s(vals)
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(vals))
	}
	wantSum := 0.0
	for _, v := range vals {
		wantSum += v
	}
	if got := h.Sum(); math.Abs(got-wantSum)/wantSum > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, wantSum)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		if got < exact/2 || got > exact*2 {
			t.Errorf("q%g: histogram %g vs exact %g outside 2x bucket band", q, got, exact)
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket 0
	h.Observe(1e-6) // bucket 0
	h.Observe(3e-6) // within range
	h.Observe(1e9)  // overflow
	cum := h.Buckets()
	if cum[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", cum[0])
	}
	if cum[histBuckets] != 4 {
		t.Fatalf("+Inf bucket = %d, want 4", cum[histBuckets])
	}
	for b := 1; b <= histBuckets; b++ {
		if cum[b] < cum[b-1] {
			t.Fatalf("cumulative counts decreased at bucket %d", b)
		}
	}
}

// BenchmarkHistogramObserveParallel is concurrent Observe on one histogram,
// the write every timed span and operator makes; -cpu sets the writers.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		for v := 1e-6; pb.Next(); v *= 1.5 {
			if v > 10 {
				v = 1e-6
			}
			h.Observe(v)
		}
	})
	if h.Count() != int64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}

// TestRegistryConcurrent hammers counters, gauges and histograms from
// parallel writers while a scraper renders the registry. Run under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("conc_total", "help")
			g := r.Gauge("conc_gauge", "help")
			h := r.Histogram("conc_seconds", "help")
			f := r.FloatCounter("conc_float_total", "help")
			for j := 0; j < perWriter; j++ {
				c.Inc()
				g.Set(int64(j))
				h.Observe(float64(j%100) * 1e-4)
				f.Add(0.001)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// let writers finish, then stop the scraper
	deadline := time.After(30 * time.Second)
	for {
		if r.Counter("conc_total", "help").Value() == writers*perWriter {
			break
		}
		select {
		case <-deadline:
			t.Fatal("writers did not finish")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
	if got := r.Counter("conc_total", "help").Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("conc_seconds", "help").Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
	wantF := float64(writers*perWriter) * 0.001
	if got := r.FloatCounter("conc_float_total", "help").Value(); math.Abs(got-wantF) > 1e-6 {
		t.Fatalf("float counter = %g, want %g", got, wantF)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("fmt_total", "a counter", L("kind", "x")).Add(3)
	r.Gauge("fmt_gauge", "a gauge").Set(9)
	h := r.Histogram("fmt_seconds", "a histogram")
	h.Observe(0.5)
	h.Observe(0.002)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP fmt_total a counter",
		"# TYPE fmt_total counter",
		`fmt_total{kind="x"} 3`,
		"# TYPE fmt_gauge gauge",
		"fmt_gauge 9",
		"# TYPE fmt_seconds histogram",
		`fmt_seconds_bucket{le="+Inf"} 2`,
		"fmt_seconds_count 2",
		"fmt_seconds_p50",
		"fmt_seconds_p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape output missing %q\n%s", want, out)
		}
	}
	// every non-comment line must be "name{labels} value" — minimally parseable
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("unparseable sample line %q", line)
		}
	}
}

func TestTracerRoundTrip(t *testing.T) {
	if Tracing() {
		t.Fatal("tracing unexpectedly on")
	}
	if _, ok := StartSpan("off", 0, nil).(noopSpan); !ok {
		t.Fatal("StartSpan with tracing off should be a no-op span")
	}
	tr := StartTracing()
	track := NewTrack()
	sp := StartSpan("optimize", track, map[string]string{"alg": "greedy"})
	time.Sleep(time.Millisecond)
	sp.End()
	if got := StopTracing(); got != tr {
		t.Fatal("StopTracing returned a different tracer")
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "optimize" || spans[0].Dur <= 0 {
		t.Fatalf("spans = %+v", spans)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"optimize"`, `"alg":"greedy"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %q\n%s", want, out)
		}
	}
}
