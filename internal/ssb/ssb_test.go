package ssb

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/storage"
)

func TestCatalogScales(t *testing.T) {
	c1 := Catalog(1)
	lo, err := c1.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	if lo.Rows != 6000000 {
		t.Errorf("lineorder at SF1 = %d rows, want 6000000", lo.Rows)
	}
	if c1.MustTable("date").Rows != DateRows {
		t.Errorf("date at SF1 = %d rows, want %d", c1.MustTable("date").Rows, DateRows)
	}
	// Linear scaling for everything except the fixed calendar.
	c2 := Catalog(0.02)
	c4 := Catalog(0.04)
	for _, name := range c1.Names() {
		r2, r4 := c2.MustTable(name).Rows, c4.MustTable(name).Rows
		if name == "date" {
			if r2 != DateRows || r4 != DateRows {
				t.Errorf("date dimension must not scale: %d / %d", r2, r4)
			}
			continue
		}
		if r4 != 2*r2 {
			t.Errorf("%s: rows(0.04)=%d is not 2x rows(0.02)=%d", name, r4, r2)
		}
	}
	for _, name := range c1.Names() {
		if len(c1.MustTable(name).Indexes) == 0 {
			t.Errorf("table %s lacks its clustered PK index", name)
		}
	}
}

// renderDB flattens every table of a generated database into strings, in
// table order and heap scan order, for byte-level comparison.
func renderDB(t *testing.T, db *storage.DB) []string {
	t.Helper()
	var out []string
	for _, name := range TableNames() {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		err = tab.Heap.Scan(func(rid storage.RID, r storage.Row) error {
			out = append(out, name+":"+fmt.Sprintf("%v", r))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestGeneratorDeterministic proves the acceptance criterion: two
// independent generations at the same (seed, SF) are byte-identical, at
// two different scale factors — and a different seed is not.
func TestGeneratorDeterministic(t *testing.T) {
	for _, sf := range []float64{0.001, 0.003} {
		var runs [2][]string
		for r := 0; r < 2; r++ {
			db := storage.NewDB(2048)
			if err := LoadDB(db, sf, 42); err != nil {
				t.Fatal(err)
			}
			runs[r] = renderDB(t, db)
		}
		if len(runs[0]) != len(runs[1]) {
			t.Fatalf("sf=%g: row counts differ across generations: %d vs %d", sf, len(runs[0]), len(runs[1]))
		}
		for i := range runs[0] {
			if runs[0][i] != runs[1][i] {
				t.Fatalf("sf=%g: generation diverges at row %d:\n%s\n%s", sf, i, runs[0][i], runs[1][i])
			}
		}
		other := storage.NewDB(2048)
		if err := LoadDB(other, sf, 43); err != nil {
			t.Fatal(err)
		}
		got := renderDB(t, other)
		same := len(got) == len(runs[0])
		if same {
			diff := false
			for i := range got {
				if got[i] != runs[0][i] {
					diff = true
					break
				}
			}
			if !diff {
				t.Errorf("sf=%g: seeds 42 and 43 generated identical data", sf)
			}
		}
	}
}

func TestLoadDBConsistentWithCatalog(t *testing.T) {
	db := storage.NewDB(2048)
	const sf = 0.002
	if err := LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	cat := Catalog(sf)
	for _, name := range cat.Names() {
		ct := cat.MustTable(name)
		st, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Heap.Rows() != ct.Rows {
			t.Errorf("%s: stored %d rows, catalog says %d", name, st.Heap.Rows(), ct.Rows)
		}
		if len(st.Schema) != len(ct.Cols) {
			t.Errorf("%s: schema width mismatch", name)
		}
	}
}

// TestForeignKeysResolve checks that every fact row references existing
// dimension rows and that the generated hierarchies are internally
// consistent: a city name determines its nation, a nation its region, and
// a brand its category and manufacturer.
func TestForeignKeysResolve(t *testing.T) {
	db := storage.NewDB(2048)
	const sf = 0.002
	if err := LoadDB(db, sf, 3); err != nil {
		t.Fatal(err)
	}
	keys := func(table string) map[int64]bool {
		tab, err := db.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		set := map[int64]bool{}
		if err := tab.Heap.Scan(func(_ storage.RID, r storage.Row) error {
			set[r[0].I] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return set
	}
	dk, ck, suk, pk := keys("date"), keys("customer"), keys("supplier"), keys("part")
	if len(dk) != DateRows {
		t.Errorf("date has %d distinct keys, want %d", len(dk), DateRows)
	}

	lo, err := db.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	prevKey := int64(0)
	if err := lo.Heap.Scan(func(_ storage.RID, r storage.Row) error {
		if r[0].I < prevKey {
			t.Fatalf("lokey not nondecreasing: %d after %d", r[0].I, prevKey)
		}
		prevKey = r[0].I
		if !ck[r[1].I] {
			t.Fatalf("locust %d does not resolve", r[1].I)
		}
		if !pk[r[2].I] {
			t.Fatalf("lopart %d does not resolve", r[2].I)
		}
		if !suk[r[3].I] {
			t.Fatalf("losupp %d does not resolve", r[3].I)
		}
		if !dk[r[4].I] {
			t.Fatalf("lodate %d does not resolve", r[4].I)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Location hierarchy: CITY#j → NATION#(j/10) → Regions[(j/10)/5].
	for _, table := range []string{"customer", "supplier"} {
		tab, err := db.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Heap.Scan(func(_ storage.RID, r storage.Row) error {
			city, nation, region := r[1].S, r[2].S, r[3].S
			j, err := strconv.Atoi(strings.TrimPrefix(city, "CITY#"))
			if err != nil {
				return fmt.Errorf("bad city name %q", city)
			}
			n := j / (NumCities / NumNations)
			if nation != NationName(n) || region != Regions[n/(NumNations/NumRegions)] {
				return fmt.Errorf("%s hierarchy broken: %s / %s / %s", table, city, nation, region)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Product hierarchy: MFGR#mcbb → MFGR#mc → MFGR#m.
	part, err := db.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Heap.Scan(func(_ storage.RID, r storage.Row) error {
		mfgr, category, brand := r[1].S, r[2].S, r[3].S
		if !strings.HasPrefix(brand, category) || !strings.HasPrefix(category, mfgr) {
			return fmt.Errorf("part hierarchy broken: %s / %s / %s", mfgr, category, brand)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAllQueriesBuildAndOptimize prices every flight (and every drill-down
// batch) under all four algorithms at SF 1 statistics; every heuristic
// must be no worse than plain Volcano.
func TestAllQueriesBuildAndOptimize(t *testing.T) {
	cat := Catalog(1)
	model := cost.DefaultModel()
	batches := map[string][]*algebra.Tree{
		"flight1": Flight(1),
		"flight2": Flight(2),
		"flight3": Flight(3),
		"flight4": Flight(4),
		"all13":   AllFlights(),
	}
	for n := 1; n <= NumFlights; n++ {
		batches[fmt.Sprintf("drill%d", n)] = DrillDownBatch(n, MaxDrillSteps)
	}
	for name, qs := range batches {
		pd, err := core.BuildDAG(cat, model, qs)
		if err != nil {
			t.Fatalf("%s: BuildDAG: %v", name, err)
		}
		var costs []float64
		for _, alg := range core.Algorithms() {
			res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", name, alg, err)
			}
			if res.Cost <= 0 {
				t.Errorf("%s %v: non-positive cost %v", name, alg, res.Cost)
			}
			costs = append(costs, res.Cost)
		}
		for i := 1; i < len(costs); i++ {
			if costs[i] > costs[0]*1.0001 {
				t.Errorf("%s: %v cost %.1f worse than Volcano %.1f",
					name, core.Algorithms()[i], costs[i], costs[0])
			}
		}
	}
}

// TestFlightsShare checks that the star flights actually exercise MQO: the
// sharing heuristics must find common subplans in every flight.
func TestFlightsShare(t *testing.T) {
	cat := Catalog(1)
	model := cost.DefaultModel()
	for n := 1; n <= NumFlights; n++ {
		pd, err := core.BuildDAG(cat, model, Flight(n))
		if err != nil {
			t.Fatal(err)
		}
		volcano, _ := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
		greedy, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Stats.SharableNodes == 0 {
			t.Errorf("flight %d: no sharable nodes detected", n)
		}
		if greedy.Cost > volcano.Cost {
			t.Errorf("flight %d: greedy %.1f worse than volcano %.1f", n, greedy.Cost, volcano.Cost)
		}
	}
}

// TestExecuteSSBEndToEnd generates a small database and verifies that
// optimized plans of each algorithm compute the same results as the
// reference evaluator, for every flight and one drill-down sequence.
func TestExecuteSSBEndToEnd(t *testing.T) {
	const sf = 0.002
	db := storage.NewDB(2048)
	if err := LoadDB(db, sf, 7); err != nil {
		t.Fatal(err)
	}
	cat := Catalog(sf)
	model := cost.DefaultModel()

	batches := map[string][]*algebra.Tree{
		"flight1": Flight(1),
		"flight2": Flight(2),
		"flight3": Flight(3),
		"flight4": Flight(4),
		"drill2":  DrillDownBatch(2, MaxDrillSteps),
	}
	nonEmpty := 0
	for name, qs := range batches {
		want := make([]exec.QueryResult, len(qs))
		for i, q := range qs {
			rows, schema, err := exec.Reference(db, q, nil)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			if len(rows) > 0 {
				nonEmpty++
			}
			want[i] = exec.QueryResult{Schema: schema, Rows: rows}
		}
		pd, err := core.BuildDAG(cat, model, qs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, alg := range []core.Algorithm{core.Volcano, core.Greedy} {
			res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", name, alg, err)
			}
			results, _, err := exec.Run(context.Background(), db, model, res.Plan, nil)
			if err != nil {
				t.Fatalf("%s %v run: %v\nplan:\n%s", name, alg, err, res.Plan)
			}
			for i, qr := range results {
				if !exec.EqualRows(qr, want[i], 1e-9) {
					t.Fatalf("%s %v query %d: %d rows differ from the reference's %d\nplan:\n%s",
						name, alg, i, len(qr.Rows), len(want[i].Rows), res.Plan)
				}
			}
		}
	}
	// The comparison must not be vacuous: a decent share of the queries
	// has to produce rows at this scale.
	if nonEmpty < 5 {
		t.Errorf("only %d queries produced rows; workload too degenerate at this scale/seed", nonEmpty)
	}
}

// TestDrillDownShapes checks the drill-down invariants: each step adds
// conjuncts only (text prefix property aside, the lowered trees must keep
// one query per step) and clamping works.
func TestDrillDownShapes(t *testing.T) {
	for n := 1; n <= NumFlights; n++ {
		seq := DrillDown(n, MaxDrillSteps)
		if len(seq) != MaxDrillSteps {
			t.Fatalf("flight %d: %d steps, want %d", n, len(seq), MaxDrillSteps)
		}
		for k, batch := range seq {
			if len(batch) != 1 {
				t.Errorf("flight %d step %d: %d queries, want 1", n, k, len(batch))
			}
		}
		texts := DrillDownSQL(n, MaxDrillSteps)
		for k := 1; k < len(texts); k++ {
			if !strings.Contains(texts[k], "AND") || len(texts[k]) <= len(texts[k-1]) {
				t.Errorf("flight %d: step %d does not tighten step %d", n, k, k-1)
			}
		}
	}
	if got := len(DrillDownSQL(1, 99)); got != MaxDrillSteps {
		t.Errorf("steps clamp high: got %d", got)
	}
	if got := len(DrillDownSQL(1, -1)); got != 1 {
		t.Errorf("steps clamp low: got %d", got)
	}
}
