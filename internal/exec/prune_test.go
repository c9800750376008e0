package exec_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/physical"
	"mqo/internal/psp"
	"mqo/internal/sql"
	"mqo/internal/ssb"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

// These tests sit outside the package because the result cache imports it.

// step is one batch and the bindings it runs under.
type step struct {
	queries []*algebra.Tree
	sets    []map[string]algebra.Value
}

// TestPrunedPlansMatchReference runs the repository's workloads under all
// four algorithms, cold and then again over the result cache the first pass
// filled, and compares every answer with the naive reference, which decodes
// whole rows. A leaf that drops a column something above it reads fails the
// run (the column no longer resolves) or the comparison; the second pass
// takes the same risk through cache scans in both tiers, spooled roots and
// partially cached Invokes, all of which the test insists it crossed. So does
// a gate that drops a row its owner would have kept, and the test insists it
// ran a Filter's, a streamed join input's and a held outer input's, a gate a
// join passed on from above, a join that tested its keys by a bitmap of the
// held ones, and a join that held nothing and so never opened its other
// input.
func TestPrunedPlansMatchReference(t *testing.T) {
	plansMatchReference(t, func(env *exec.Env) *exec.Env { return env })
}

// TestRowsValidUntilNext runs the same matrix with every operator's rows
// overwritten with garbage the moment the Iterator contract lets them lapse
// (exec.SpoilRows): an operator that keeps a row across its child's next Next
// without copying it — which passes unnoticed as long as the next page, probe
// or pair happens to land elsewhere — then answers wrongly every time.
func TestRowsValidUntilNext(t *testing.T) { plansMatchReference(t, exec.SpoilRows) }

func plansMatchReference(t *testing.T, with func(*exec.Env) *exec.Env) {
	const (
		ample = 16 << 20
		tight = 4 * storage.PageSize // a dozen one-page flight results do not fit
	)
	load := func(f func(*storage.DB, float64, int64) error, sf float64, seed int64) func(*storage.DB) error {
		return func(db *storage.DB) error { return f(db, sf, seed) }
	}
	var flights, bq, cq []step
	for n := 1; n <= ssb.NumFlights; n++ {
		flights = append(flights, step{queries: ssb.Flight(n)})
	}
	for i := 1; i <= 5; i++ {
		bq = append(bq, step{queries: tpcd.BatchQueries(i)})
	}
	for i := 1; i <= 2; i++ {
		cq = append(cq, step{queries: psp.CQ(i)})
	}
	crossed := map[string]bool{}
	note := func(kind string) { crossed[kind] = true }
	for _, w := range []struct {
		name         string
		load         func(*storage.DB) error
		cat          *catalog.Catalog
		pass1, pass2 []step
		ram, warm    int64
	}{
		{"ssb flights", load(ssb.LoadDB, 0.002, 7), ssb.Catalog(0.002), flights, flights, tight, ample},
		{"tpcd BQ1-5", load(tpcd.LoadDB, 0.0005, 7), tpcd.Catalog(0.0005), bq, bq, ample, 0},
		{"psp CQ1-2", load(psp.LoadDB, 0.01, 3), psp.Catalog(0.01), cq, cq, ample, 0},
		// Statistics of SF 0.01, where spooling one binding's rows is worth
		// its write, over data the reference's all-pairs joins can afford.
		{"ssb DrillParam months 1-6 then 4-9", load(ssb.LoadDB, 0.0002, 11), ssb.Catalog(0.01),
			[]step{{ssb.DrillParam(6), ssb.DrillParamBindings(1, 2, 3, 4, 5, 6)}},
			[]step{{ssb.DrillParam(6), ssb.DrillParamBindings(4, 5, 6, 7, 8, 9)}}, ample, 0},
	} {
		t.Run(w.name, func(t *testing.T) {
			db := storage.NewDB(64)
			if err := w.load(db); err != nil {
				t.Fatal(err)
			}
			steps := slices.Concat(w.pass1, w.pass2)
			want := make([][]exec.QueryResult, len(steps))
			for k, s := range steps {
				if k >= len(w.pass1) && s.sets == nil {
					want[k] = want[k-len(w.pass1)] // the same parameter-free batch again
					continue
				}
				for _, q := range s.queries {
					rows, schema, err := exec.Reference(db, q, &exec.Env{ParamSets: s.sets})
					if err != nil {
						t.Fatal(err)
					}
					want[k] = append(want[k], exec.QueryResult{Schema: schema, Rows: rows})
				}
			}
			model := cost.DefaultModel()
			for _, alg := range core.Algorithms() {
				m := cache.NewStoreTiered(db, model, w.ram, w.warm, 1)
				for k, s := range steps {
					pd, err := core.BuildDAG(w.cat, model, s.queries)
					if err != nil {
						t.Fatal(err)
					}
					ticket := m.Arm(pd, s.sets)
					res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
					if err != nil {
						ticket.Abort()
						t.Fatalf("%v step %d: %v", alg, k, err)
					}
					spools := ticket.PlanSpools(res.Plan)
					got, _, err := exec.Run(context.Background(), db, model, res.Plan, with(exec.NoteGates(&exec.Env{
						ParamSets: s.sets, Cache: &exec.CacheIO{Spools: spools, BindSpools: ticket.BindingSpools()}}, note)))
					if err != nil {
						ticket.Abort()
						t.Fatalf("%v step %d: %v\nplan:\n%s", alg, k, err, res.Plan)
					}
					ticket.Commit()
					for i := range got {
						if !exec.EqualRows(got[i], want[k][i], 1e-9) {
							t.Fatalf("%v step %d query %d: %d rows differ from the reference's %d\nplan:\n%s",
								alg, k, i, len(got[i].Rows), len(want[k][i].Rows), res.Plan)
						}
					}
					roots := res.Plan.Root.Children
					if res.Plan.Root.E.Kind != physical.Batch {
						roots = []*physical.PlanNode{res.Plan.Root}
					}
					for _, q := range roots {
						if _, ok := spools[q.N]; ok && !q.Mat {
							crossed["spooled root"] = true
						}
					}
					res.Plan.Root.Walk(func(pn *physical.PlanNode) {
						kind := pn.E.Kind.String()
						if pn.E.Kind == physical.CacheScanOp && pn.E.Arm.CacheTier == cost.TierWarm {
							kind += "@warm"
						}
						crossed[kind] = true
					})
				}
				m.Close()
			}
		})
	}
	for _, path := range []string{"SeqScan", "CacheScan", "CacheScan@warm", "InvokePartial", "spooled root",
		"BNLJoin", "MergeJoin", "IndexJoin", "SortAgg",
		"Filter gate", "BNLJoin streamed-side gate", "BNLJoin holdOuter gate",
		"forwarded gate", "BNLJoin empty held side", "BNLJoin key bitmap"} {
		if !crossed[path] {
			t.Errorf("no plan crossed %s", path)
		}
	}
}

// profiled optimizes and runs one batch over an SSB database with profiling
// on and returns the profile and the answers.
func profiled(t *testing.T, db *storage.DB, alg core.Algorithm, queries []*algebra.Tree, sets ...map[string]algebra.Value) (*exec.BatchProfile, []exec.QueryResult) {
	t.Helper()
	model := cost.DefaultModel()
	pd, err := core.BuildDAG(ssb.Catalog(0.002), model, queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := exec.Run(context.Background(), db, model, res.Plan, &exec.Env{Profile: true, ParamSets: sets})
	if err != nil {
		t.Fatalf("%v\nplan:\n%s", err, res.Plan)
	}
	return stats.Profile, results
}

// TestGatedAddsUpToSkipped: every row a scan's gates drop is credited to the
// one filter or join whose gate was first to fail it, so on every SSB flight,
// under every algorithm, the operators' Gated add up to the scans' Skipped.
func TestGatedAddsUpToSkipped(t *testing.T) {
	db := storage.NewDB(2048)
	if err := ssb.LoadDB(db, 0.002, 7); err != nil {
		t.Fatal(err)
	}
	for _, alg := range core.Algorithms() {
		for f := 1; f <= ssb.NumFlights; f++ {
			prof, _ := profiled(t, db, alg, ssb.Flight(f))
			var gated, skipped int64
			prof.Visit(func(p *exec.NodeProfile) {
				gated += p.Gated
				skipped += p.Skipped
				if p.Gated > 0 && p.StoredCols > 0 {
					t.Errorf("%v flight %d: scan %s credited with gate drops", alg, f, p.Op)
				}
			})
			if gated != skipped || skipped == 0 {
				t.Errorf("%v flight %d: the operators' gates were first to drop %d rows, the scans skipped %d",
					alg, f, gated, skipped)
			}
			if text := exec.FormatAnalyze(exec.RunStats{Profile: prof}); !strings.Contains(text, " gated=") {
				t.Errorf("%v flight %d: EXPLAIN ANALYZE shows no gated=:\n%s", alg, f, text)
			}
		}
	}
}

// scansOf lists the scan and probe profiles under the given roots.
func scansOf(roots []*exec.NodeProfile) (scans []*exec.NodeProfile) {
	(&exec.BatchProfile{Queries: roots}).Visit(func(p *exec.NodeProfile) {
		if p.StoredCols > 0 {
			scans = append(scans, p)
		}
	})
	return scans
}

// TestNeedSetAnalysis pins what the builder asks of the leaves.
func TestNeedSetAnalysis(t *testing.T) {
	db := storage.NewDB(2048)
	if err := ssb.LoadDB(db, 0.002, 7); err != nil {
		t.Fatal(err)
	}
	const lineorderCols = 10

	t.Run("Q3.1 reads four fact columns", func(t *testing.T) {
		// Customer and supplier keys, the order date and the revenue.
		prof, _ := profiled(t, db, core.Volcano, []*algebra.Tree{ssb.Query(3, 0)})
		facts := 0
		for _, p := range scansOf(prof.Queries) {
			if p.StoredCols == lineorderCols {
				if facts++; p.Cols != 4 {
					t.Errorf("%s of lineorder keeps %d/%d columns, want 4", p.Op, p.Cols, p.StoredCols)
				}
			} else if p.Cols >= p.StoredCols {
				t.Errorf("%s of a dimension keeps all %d columns", p.Op, p.StoredCols)
			}
		}
		if facts != 1 {
			t.Errorf("%d scans of lineorder, want 1", facts)
		}
		if text := exec.FormatAnalyze(exec.RunStats{Profile: prof}); !strings.Contains(text, " cols=4/10 pages=") {
			t.Errorf("EXPLAIN ANALYZE does not show cols=4/10:\n%s", text)
		}
	})

	t.Run("a scan drops undecoded what its filter fails", func(t *testing.T) {
		prof, _ := profiled(t, db, core.Volcano, []*algebra.Tree{ssb.Query(1, 0)})
		text := exec.FormatAnalyze(exec.RunStats{Profile: prof})
		facts := 0
		for _, p := range scansOf(prof.Queries) {
			if p.StoredCols != lineorderCols {
				continue
			}
			facts++
			if p.Skipped == 0 || p.Rows+p.Skipped != 12000 {
				t.Errorf("%s of lineorder delivered %d rows and skipped %d, want some skipped and 12000 in all", p.Op, p.Rows, p.Skipped)
			}
			if want := fmt.Sprintf(" rows=%d skipped=%d cols=", p.Rows, p.Skipped); !strings.Contains(text, want) {
				t.Errorf("EXPLAIN ANALYZE does not show %q:\n%s", want, text)
			}
		}
		if facts != 1 {
			t.Errorf("%d scans of lineorder, want 1:\n%s", facts, text)
		}
	})

	t.Run("a bare join at the root keeps everything", func(t *testing.T) {
		join := algebra.JoinT(algebra.ColEq(algebra.Col("lineorder", "lodate"), algebra.Col("date", "dk")),
			algebra.ScanT("lineorder"), algebra.ScanT("date"))
		prof, results := profiled(t, db, core.Volcano, []*algebra.Tree{join})
		for _, p := range scansOf(prof.Queries) {
			if p.Cols != p.StoredCols {
				t.Errorf("%s keeps %d/%d columns under a root that returns them all", p.Op, p.Cols, p.StoredCols)
			}
		}
		if got := len(results[0].Schema); got != lineorderCols+5 {
			t.Errorf("result has %d columns, want every column of lineorder and date", got)
		}
	})

	t.Run("an index probe fetches by need", func(t *testing.T) {
		qs, err := sql.ParseBatch(ssb.Catalog(0.002), "SELECT dyear FROM date WHERE dk = 19940101")
		if err != nil {
			t.Fatal(err)
		}
		prof, results := profiled(t, db, core.Volcano, qs)
		scans := scansOf(prof.Queries)
		if len(scans) != 1 || scans[0].Op != "IndexSelect" || scans[0].Cols != 2 || scans[0].StoredCols != 5 {
			t.Errorf("want one IndexSelect keeping the key and the year, 2/5; got %+v", scans)
		}
		if len(results[0].Rows) != 1 || results[0].Rows[0][0].I != 1994 {
			t.Errorf("got %v, want the one row 1994", results[0].Rows)
		}
	})

	t.Run("an Invoke's body keeps everything", func(t *testing.T) {
		// Its rows may be teed to a per-binding cache table another batch
		// reads, so even a count above it must not narrow them.
		body := algebra.SelectT(algebra.CmpParam(algebra.Col("lineorder", "lodisc"), algebra.GE, "d"), algebra.ScanT("lineorder"))
		count := algebra.AggT(nil, []algebra.AggExpr{{Func: algebra.CountAll, As: algebra.Col("q", "n")}},
			algebra.NewTree(algebra.Invoke{Times: 2}, body))
		prof, results := profiled(t, db, core.Volcano, []*algebra.Tree{count},
			map[string]algebra.Value{"d": algebra.IntVal(0)}, map[string]algebra.Value{"d": algebra.IntVal(99)})
		for _, p := range scansOf(prof.Queries) {
			if p.Cols != p.StoredCols {
				t.Errorf("%s under an Invoke keeps %d/%d columns", p.Op, p.Cols, p.StoredCols)
			}
		}
		if n := results[0].Rows[0][0].I; n != 12000 {
			t.Errorf("counted %d rows over the two bindings, want lineorder's 12000 once", n)
		}
	})

	t.Run("a materialization is computed whole and read by need", func(t *testing.T) {
		// Greedy shares one join between Q4.2 and Q4.3 here; should the plan
		// change, any batch with a materialization read at two widths does.
		prof, _ := profiled(t, db, core.Greedy, ssb.Flight(4))
		if len(prof.Mats) == 0 {
			t.Fatal("flight 4 materialized nothing")
		}
		for _, p := range scansOf(prof.Mats) {
			if strings.HasPrefix(p.Op, "SeqScan") && p.Cols != p.StoredCols {
				t.Errorf("%s under a materialization keeps %d/%d columns", p.Op, p.Cols, p.StoredCols)
			}
		}
		widths := map[string]map[int]bool{}
		for _, p := range scansOf(prof.Queries) {
			if strings.HasPrefix(p.Op, "TempScan(") {
				if widths[p.Op] == nil {
					widths[p.Op] = map[int]bool{}
				}
				widths[p.Op][p.Cols] = true
				if p.Cols >= p.StoredCols {
					t.Errorf("%s keeps all %d columns under an aggregate", p.Op, p.StoredCols)
				}
			}
		}
		two := false
		for _, w := range widths {
			two = two || len(w) > 1
		}
		if !two {
			t.Errorf("no materialization was read at two widths: %v", widths)
		}
	})
}
