package cache

import (
	"testing"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/ssb"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

// BenchmarkBindingReplay measures per-binding caching in its best cases, on
// (the default admission bound) against off (bound 0). One op is a fresh
// store replaying a parameterized batch twice: pass 1 bound to set A, pass 2
// to set B, half of whose bindings A already had. With caching on, pass 2
// answers those bindings from their spooled tables and recomputes only the
// new ones. pass2-ns/op is pass 2's time alone.
//
//   - q2ni: TPC-D Q2-NI at SF 0.02, pool 64, part keys 1–8 then 5–12. The
//     "not in" correlation defeats index access, so every binding is a
//     full aggregate over the invariant join.
//   - drill: ssb.DrillParam over SF 0.002 data planned with SF 0.01
//     statistics, months 1–6 then 4–9. With statistics at the data's own
//     scale, Greedy materializes the drill's parameter-free date
//     pre-aggregate instead, and no binding is worth admitting.
func BenchmarkBindingReplay(b *testing.B) {
	cases := []struct {
		name       string
		load       func(*storage.DB) error
		cat        *catalog.Catalog
		pool       int
		queries    func(times int64) []*algebra.Tree
		setA, setB []map[string]algebra.Value
	}{
		{
			name:    "q2ni",
			load:    func(db *storage.DB) error { return tpcd.LoadDB(db, 0.02, 1) },
			cat:     tpcd.Catalog(0.02),
			pool:    64,
			queries: func(int64) []*algebra.Tree { return tpcd.Q2NI(0.02) },
			setA:    partKeys(1, 8),
			setB:    partKeys(5, 12),
		},
		{
			name:    "drill",
			load:    func(db *storage.DB) error { return ssb.LoadDB(db, 0.002, 1) },
			cat:     ssb.Catalog(0.01),
			pool:    256,
			queries: ssb.DrillParam,
			setA:    ssb.DrillParamBindings(1, 2, 3, 4, 5, 6),
			setB:    ssb.DrillParamBindings(4, 5, 6, 7, 8, 9),
		},
	}
	for _, c := range cases {
		db := storage.NewDB(c.pool)
		if err := c.load(db); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name  string
			bound int
		}{{"on", maxBindAdmitPerBatch}, {"off", 0}} {
			b.Run(c.name+"/"+mode.name, func(b *testing.B) {
				defer func(bound int) { maxBindAdmitPerBatch = bound }(maxBindAdmitPerBatch)
				maxBindAdmitPerBatch = mode.bound
				var pass2 time.Duration
				var st Stats
				for i := 0; i < b.N; i++ {
					m := NewStoreTiered(db, cost.DefaultModel(), 16<<20, 0, 0)
					runTicket(b, m, db, c.cat, c.queries(int64(len(c.setA))), c.setA)
					start := time.Now()
					runTicket(b, m, db, c.cat, c.queries(int64(len(c.setB))), c.setB)
					pass2 += time.Since(start)
					st = m.Stats()
					m.Close()
				}
				if got, want := st.BindingHits > 0, mode.bound > 0; got != want {
					b.Fatalf("binding hits %d with admission bound %d", st.BindingHits, mode.bound)
				}
				b.ReportMetric(float64(pass2.Nanoseconds())/float64(b.N), "pass2-ns/op")
			})
		}
	}
}

// partKeys binds Q2's correlation parameter pk to lo..hi.
func partKeys(lo, hi int64) []map[string]algebra.Value {
	var sets []map[string]algebra.Value
	for pk := lo; pk <= hi; pk++ {
		sets = append(sets, map[string]algebra.Value{"pk": algebra.IntVal(pk)})
	}
	return sets
}
