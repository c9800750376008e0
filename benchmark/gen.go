package main

import (
	"fmt"
	"math/rand"

	"mqo/internal/ssb"
)

// Inputs is everything one run feeds the program under test. It is made
// from the workload seed alone and holds neither the seed nor a workload
// name: the program sees generated data, SQL text, bindings and schedules,
// never what produced them.
type Inputs struct {
	// DSSOrder is the order in which dss_batch_cold submits its batches in
	// every pass.
	DSSOrder []int `json:"dss_order"`
	// OptOrder is the order in which opt_scaleup visits its
	// (batch, algorithm) cells in every pass.
	OptOrder []int `json:"opt_order"`
	// BindingsA and BindingsB are the months of 1993 bound to ssb.DrillParam
	// in pass 1 and pass 2 of cache_replay_tight; half of B is drawn from A.
	BindingsA []int64 `json:"bindings_a"`
	BindingsB []int64 `json:"bindings_b"`
	// Pool is the service's SQL text pool: the 13 SSB queries, the 16
	// drill-down steps and seeded constant variants of four templates.
	Pool []string `json:"pool"`
	// Prefix, Open and Closed index Pool by Zipf(1.1) rank through one
	// fixed permutation: which texts are hot does not depend on the seed,
	// because a request's cost depends on its text (a five-way join builds
	// a far larger DAG than a two-way one) and runs are compared across
	// seeds.
	Prefix []int         `json:"prefix"`
	Open   []OpenSegment `json:"open"`
	Closed []int         `json:"closed"`
}

// OpenSegment is one fixed-rate stretch of the open-loop schedule.
type OpenSegment struct {
	RateQPS  int       `json:"rate_qps"`
	Arrivals []Arrival `json:"arrivals"`
}

// Arrival is one open-loop request: when it is due, counted from the start
// of its segment, and which pool text it sends.
type Arrival struct {
	AtNs  int64 `json:"at_ns"`
	Query int   `json:"query"`
}

// Shape sizes the generated inputs; it follows from the scale and the run
// length, never from the seed.
type Shape struct {
	DSSBatches  int
	OptCells    int
	Bindings    int
	Variants    int // per template
	Prefix      int
	Closed      int
	OpenRates   []int
	OpenSeconds float64 // per rate
}

// minArrivals is the least number of requests in an open-loop segment,
// however short: a segment's latency quantiles need samples.
const minArrivals = 4

// splitmix64 derives independent sub-seeds, so that resizing one part of
// the inputs leaves the others as they were.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed)^splitmix64(stream)) >> 1)))
}

// Generate makes the inputs of one run. The same seed and shape give the
// same inputs, byte for byte once marshalled.
func Generate(seed int64, sh Shape) Inputs {
	in := Inputs{
		DSSOrder: subRand(seed, 0).Perm(sh.DSSBatches),
		OptOrder: subRand(seed, 1).Perm(sh.OptCells),
	}

	months := subRand(seed, 2).Perm(12)
	n, keep := sh.Bindings, sh.Bindings/2
	for _, m := range months[:n] {
		in.BindingsA = append(in.BindingsA, int64(m+1))
	}
	for _, m := range append(append([]int{}, months[:keep]...), months[n:2*n-keep]...) {
		in.BindingsB = append(in.BindingsB, int64(m+1))
	}

	in.Pool = append(in.Pool, ssb.AllQuerySQL()...)
	for f := 1; f <= ssb.NumFlights; f++ {
		in.Pool = append(in.Pool, ssb.DrillDownSQL(f, ssb.MaxDrillSteps)...)
	}
	in.Pool = append(in.Pool, variants(subRand(seed, 3), sh.Variants)...)

	r := subRand(seed, 4)
	rank := rand.New(rand.NewSource(1)).Perm(len(in.Pool))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(in.Pool)-1))
	draw := func() int { return rank[zipf.Uint64()] }
	for i := 0; i < sh.Prefix; i++ {
		in.Prefix = append(in.Prefix, draw())
	}
	for i := 0; i < sh.Closed; i++ {
		in.Closed = append(in.Closed, draw())
	}
	for _, rate := range sh.OpenRates {
		seg := OpenSegment{RateQPS: rate}
		at := 0.0
		for {
			at += r.ExpFloat64() / float64(rate)
			if at >= sh.OpenSeconds && len(seg.Arrivals) >= minArrivals {
				break
			}
			seg.Arrivals = append(seg.Arrivals, Arrival{AtNs: int64(at * 1e9), Query: draw()})
		}
		in.Open = append(in.Open, seg)
	}
	return in
}

// variants instantiates each of four SSB templates (one per flight) n times
// with seeded constants. The constants stay at the top of each hierarchy so
// the variants return rows even at small scale factors, where five of the
// thirteen canonical queries return none.
func variants(r *rand.Rand, n int) []string {
	region := func() string { return ssb.Regions[r.Intn(ssb.NumRegions)] }
	var out []string
	for i := 0; i < n; i++ {
		disc := 1 + r.Intn(7)
		out = append(out, fmt.Sprintf(`SELECT SUM(loprice*lodisc) AS revenue
		 FROM lineorder, date
		 WHERE lodate = dk AND dyear = %d
		   AND lodisc >= %d AND lodisc <= %d AND loqty < %d`,
			ssb.FirstYear+r.Intn(ssb.LastYear-ssb.FirstYear+1), disc, disc+2, 20+r.Intn(16)))
		out = append(out, fmt.Sprintf(`SELECT SUM(lorev) AS revenue, dyear, pbrand
		 FROM lineorder, part, supplier, date
		 WHERE lodate = dk AND lopart = pk AND losupp = suk
		   AND pcategory = '%s' AND sregion = '%s'
		 GROUP BY dyear, pbrand`,
			ssb.CategoryName(1+r.Intn(ssb.NumMfgrs), 1+r.Intn(5)), region()))
		lo := ssb.FirstYear + r.Intn(4)
		out = append(out, fmt.Sprintf(`SELECT cnation, snation, dyear, SUM(lorev) AS revenue
		 FROM customer, lineorder, supplier, date
		 WHERE locust = ck AND losupp = suk AND lodate = dk
		   AND cregion = '%s' AND sregion = '%s'
		   AND dyear >= %d AND dyear <= %d
		 GROUP BY cnation, snation, dyear`,
			region(), region(), lo, lo+1+r.Intn(3)))
		m := 1 + r.Intn(ssb.NumMfgrs-1)
		out = append(out, fmt.Sprintf(`SELECT dyear, cnation, SUM(lorev-loscost) AS profit
		 FROM lineorder, customer, supplier, part, date
		 WHERE locust = ck AND losupp = suk AND lopart = pk AND lodate = dk
		   AND cregion = '%s' AND sregion = '%s'
		   AND pmfgr >= '%s' AND pmfgr <= '%s'
		 GROUP BY dyear, cnation`,
			region(), region(), ssb.MfgrName(m), ssb.MfgrName(m+1)))
	}
	return out
}
