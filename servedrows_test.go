package mqo

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mqo/internal/exec"
	"mqo/internal/ssb"
)

const servedRowsSF = 0.005

// ssbServeWorld opens a served-ready SSB session over freshly generated data.
func ssbServeWorld(t *testing.T) *Optimizer {
	t.Helper()
	db := NewDB(1024)
	if err := ssb.LoadDB(db, servedRowsSF, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(ssb.Catalog(servedRowsSF),
		WithDB(db), WithPlanCache(16), WithResultCache(8<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// TestServedRowsIdenticalAcrossWorkers submits every SSB flight query
// concurrently through the micro-batching service at worker counts
// {1, 2, 8} and checks each query's canonicalized rows against a serial
// reference. Batch composition varies with timing, so plans are not compared
// here — rows must not care which batch computed them.
func TestServedRowsIdenticalAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	var queries []*Query
	for n := 1; n <= ssb.NumFlights; n++ {
		queries = append(queries, ssb.Flight(n)...)
	}

	refOpt := ssbServeWorld(t)
	ref := make([][]string, len(queries))
	for i, q := range queries {
		res, err := refOpt.Run(ctx, Batch{Queries: []*Query{q}, Algorithm: Greedy})
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		ref[i] = exec.Canonicalize(res.Queries[0].Schema, res.Queries[0].Rows)
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := ssbServeWorld(t)
			svc, err := Serve(opt, BatchingOptions{MaxBatch: 4, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			got := make([][]string, len(queries))
			errs := make([]error, len(queries))
			var wg sync.WaitGroup
			for i, q := range queries {
				wg.Add(1)
				go func(i int, q *Query) {
					defer wg.Done()
					ans, err := svc.SubmitQuery(ctx, q)
					if err != nil {
						errs[i] = err
						return
					}
					got[i] = exec.Canonicalize(ans.Query.Schema, ans.Query.Rows)
				}(i, q)
			}
			wg.Wait()
			for i := range queries {
				if errs[i] != nil {
					t.Fatalf("query %d: %v", i, errs[i])
				}
				if len(got[i]) != len(ref[i]) {
					t.Fatalf("query %d: %d rows vs reference %d", i, len(got[i]), len(ref[i]))
				}
				for j := range ref[i] {
					if got[i][j] != ref[i][j] {
						t.Fatalf("query %d row %d diverged from the serial reference", i, j)
					}
				}
			}
		})
	}
}
