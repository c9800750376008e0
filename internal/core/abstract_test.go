package core

import (
	"context"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/psp"
	"mqo/internal/storage"
)

func TestAbstractParameterizedMergesConstantVariants(t *testing.T) {
	batch := []*algebra.Tree{
		chain([]string{"R", "S", "T"}, 900),
		chain([]string{"R", "S", "T"}, 950), // same shape, different constant
		chain([]string{"R", "S", "P"}, 900), // different shape
	}
	abs := AbstractParameterized(batch)
	if len(abs.Queries) != 2 {
		t.Fatalf("abstracted to %d queries, want 2", len(abs.Queries))
	}
	if abs.Merged[0] != 2 || abs.Merged[1] != 1 {
		t.Fatalf("merge counts %v, want [2 1]", abs.Merged)
	}
	iv, ok := abs.Queries[0].Op.(algebra.Invoke)
	if !ok || iv.Times != 2 {
		t.Fatalf("merged query not wrapped in Invoke×2: %v", abs.Queries[0].Op)
	}
	if len(abs.Bindings[0]) != 2 {
		t.Fatalf("bindings %v, want 2 sets", abs.Bindings[0])
	}
	// Exactly one parameter (the selection constant); its two bindings are
	// the original constants.
	vals := map[int64]bool{}
	for _, set := range abs.Bindings[0] {
		if len(set) != 1 {
			t.Fatalf("binding set %v, want a single parameter", set)
		}
		for _, v := range set {
			vals[v.I] = true
		}
	}
	if !vals[900] || !vals[950] {
		t.Errorf("bindings lost the constants: %v", vals)
	}
}

func TestAbstractIdenticalQueriesShareEverything(t *testing.T) {
	batch := []*algebra.Tree{
		chain([]string{"R", "S"}, 990),
		chain([]string{"R", "S"}, 990),
	}
	abs := AbstractParameterized(batch)
	if len(abs.Queries) != 1 || abs.Merged[0] != 2 {
		t.Fatalf("identical queries should merge: %v", abs.Merged)
	}
	// No constants vary, so bindings are empty maps.
	for _, set := range abs.Bindings[0] {
		if len(set) != 0 {
			t.Errorf("no parameters expected, got %v", set)
		}
	}
}

// TestAbstractionPreservesSemantics executes the original batch and the
// abstracted batch and compares the combined results.
func TestAbstractionPreservesSemantics(t *testing.T) {
	db := storage.NewDB(2048)
	if err := psp.LoadDB(db, 0.01, 9); err != nil {
		t.Fatal(err)
	}
	cat := psp.Catalog(0.01)
	pair := psp.SQ(1) // two chain queries differing in one constant
	batch := pair[:]

	// Reference: union of the two original queries' results.
	var want exec.QueryResult
	for _, q := range batch {
		rows, schema, err := exec.Reference(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want.Schema, want.Rows = schema, append(want.Rows, rows...)
	}

	abs := AbstractParameterized(batch)
	if len(abs.Queries) != 1 {
		t.Fatalf("SQ pair should abstract to one parameterized query, got %d", len(abs.Queries))
	}
	pd, err := BuildDAG(cat, cost.DefaultModel(), abs.Queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(context.Background(), pd, Greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := exec.Run(context.Background(), db, cost.DefaultModel(), res.Plan, &exec.Env{ParamSets: abs.Bindings[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !exec.EqualRows(results[0], want, 1e-9) { // as multisets
		t.Fatalf("abstracted execution returned %d rows that differ from the reference's %d", len(results[0].Rows), len(want.Rows))
	}
}
