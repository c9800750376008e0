package cache

import (
	"slices"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/ssb"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

// replayStep is one batch of a replay and the bindings it runs under.
type replayStep struct {
	queries []*algebra.Tree
	sets    []map[string]algebra.Value
}

// TestReplayReadsFewerBasePages replays four two-pass sequences against a
// store and against a baseline store over identically generated data. Each
// asserts that the second pass reads strictly fewer pages with the store
// than with the baseline (so it fails if the tested store caches nothing),
// that the counters of the mechanism the sequence exercises moved, and that
// every answer of both passes equals the naive reference.
//
// The optimizer is given the statistics of SSB SF 0.01 and TPC-D SF 0.02,
// where spooling a single binding's result is worth its write; the data is
// generated smaller, at a scale the reference evaluator's all-pairs joins
// can afford, and the buffer pool smaller than the data, so that recomputing
// from base tables shows up as page reads.
func TestReplayReadsFewerBasePages(t *testing.T) {
	const (
		ample = 16 << 20
		// A spooled flight result is one page at this scale and the four
		// flights spool a dozen: four pages force the store to demote or drop.
		tight = 4 * storage.PageSize
	)
	ssbCat, q2Cat, q2 := ssb.Catalog(0.01), tpcd.Catalog(0.02), tpcd.Q2NI(0.02)
	ssbLoad := func(sf float64) func(*storage.DB) error {
		return func(db *storage.DB) error { return ssb.LoadDB(db, sf, 11) }
	}
	pkSets := func(lo, hi int64) (sets []map[string]algebra.Value) {
		for k := lo; k <= hi; k++ {
			sets = append(sets, map[string]algebra.Value{"pk": algebra.IntVal(k)})
		}
		return sets
	}
	var flights, drill []replayStep
	for n := 1; n <= ssb.NumFlights; n++ {
		flights = append(flights, replayStep{queries: ssb.Flight(n)})
		for _, step := range ssb.DrillDown(n, 3) {
			drill = append(drill, replayStep{queries: step})
		}
	}
	partial := func(st Stats) []int64 { return []int64{st.BindingPartialHits, st.BindingResidual} }
	for _, c := range []struct {
		name         string
		load         func(*storage.DB) error
		cat          *catalog.Catalog
		pass1, pass2 []replayStep
		// Baseline store's RAM budget (0: caches nothing); tested store's budgets.
		baseRAM, ram, warm int64
		moved              func(Stats) []int64 // counters that must be positive
	}{
		{"ssb drill-down", ssbLoad(0.001), ssbCat, drill, drill, 0, ample, 0,
			func(st Stats) []int64 { return []int64{st.Hits} }},
		{"ssb flights under RAM pressure, warm tier on vs off", ssbLoad(0.001), ssbCat, flights, flights, tight, tight, ample,
			func(st Stats) []int64 { return []int64{st.Demotions, st.WarmHits, st.Promotions} }},
		// 1200 fact rows: the reference joins them to all 2556 dates per binding.
		{"ssb DrillParam months 1-6 then 4-9", ssbLoad(0.0002), ssbCat,
			[]replayStep{{ssb.DrillParam(6), ssb.DrillParamBindings(1, 2, 3, 4, 5, 6)}},
			[]replayStep{{ssb.DrillParam(6), ssb.DrillParamBindings(4, 5, 6, 7, 8, 9)}}, 0, ample, 0, partial},
		{"tpcd Q2NI bindings 1-8 then 5-12", func(db *storage.DB) error { return tpcd.LoadDB(db, 0.004, 11) }, q2Cat,
			[]replayStep{{q2, pkSets(1, 8)}}, []replayStep{{q2, pkSets(5, 12)}}, 0, ample, 0, partial},
	} {
		t.Run(c.name, func(t *testing.T) {
			// replay returns the second pass's page reads and the final stats.
			// It verifies last: the reference's scans would disturb the pool.
			replay := func(ram, warm int64, verify bool) (reads int64, st Stats) {
				db := storage.NewDB(16)
				if err := c.load(db); err != nil {
					t.Fatal(err)
				}
				m := NewStoreTiered(db, cost.DefaultModel(), ram, warm, 1)
				defer m.Close()
				steps := slices.Concat(c.pass1, c.pass2)
				answers := make([][]exec.QueryResult, len(steps))
				for k, s := range steps {
					results, stats, _, _ := runTicket(t, m, db, c.cat, s.queries, s.sets)
					if answers[k] = results; k >= len(c.pass1) {
						reads += stats.IO.Reads
					}
				}
				checkInvariants(t, m) // drains the promotions first
				if st = m.Stats(); !verify {
					return reads, st
				}
				// Parameter-free queries recur in both passes: evaluate each once.
				want := map[*algebra.Tree]exec.QueryResult{}
				for k, s := range steps {
					for i, q := range s.queries {
						ref, ok := want[q]
						if !ok || s.sets != nil {
							rows, schema, err := exec.Reference(db, q, &exec.Env{ParamSets: s.sets})
							if err != nil {
								t.Fatal(err)
							}
							ref = exec.QueryResult{Schema: schema, Rows: rows}
							want[q] = ref
						}
						if !exec.EqualRows(answers[k][i], ref, 1e-9) {
							t.Fatalf("step %d query %d diverges from the reference", k, i)
						}
					}
				}
				return reads, st
			}
			base, _ := replay(c.baseRAM, 0, false)
			with, st := replay(c.ram, c.warm, true)
			if with >= base {
				t.Errorf("second pass read %d pages, baseline %d: want strictly fewer", with, base)
			}
			for i, n := range c.moved(st) {
				if n <= 0 {
					t.Errorf("counter %d did not move: %+v", i, st)
				}
			}
		})
	}
}
