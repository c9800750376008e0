package mqo

import (
	"context"
	"testing"

	"mqo/internal/tpcd"
)

// TestSessionRoundTrip exercises the public API end to end: open a
// session, parse SQL, and optimize the batch with all four algorithms.
func TestSessionRoundTrip(t *testing.T) {
	opt, err := Open(tpcd.Catalog(1), WithModel(DefaultModel()))
	if err != nil {
		t.Fatal(err)
	}
	const batch = `
		SELECT nname, SUM(lprice) AS rev FROM lineitem, supplier, nation
		WHERE lsk = sk AND snk = nk AND lship > 2000 GROUP BY nname;
		SELECT nname, COUNT(*) AS n FROM lineitem, supplier, nation
		WHERE lsk = sk AND snk = nk AND lship > 2200 GROUP BY nname`
	ctx := context.Background()
	var volcano, greedy float64
	for _, alg := range Algorithms() {
		res, err := opt.OptimizeSQL(ctx, batch, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Cost <= 0 {
			t.Fatalf("%v: bad cost", alg)
		}
		switch alg {
		case Volcano:
			volcano = res.Cost
		case Greedy:
			greedy = res.Cost
		}
	}
	if greedy > volcano {
		t.Errorf("greedy (%f) worse than volcano (%f)", greedy, volcano)
	}
}

// TestParseAlgorithm covers the shared name mapping used by every command.
func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"volcano": Volcano, "Volcano-SH": VolcanoSH, "sh": VolcanoSH,
		"volcano-ru": VolcanoRU, "RU": VolcanoRU, "greedy": Greedy,
	} {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("simplex"); err == nil {
		t.Error("ParseAlgorithm accepted an unknown name")
	}
}

// TestAlgorithmString: out-of-range values must render, not panic.
func TestAlgorithmString(t *testing.T) {
	if s := Algorithm(42).String(); s != "Algorithm(42)" {
		t.Errorf("got %q, want %q", s, "Algorithm(42)")
	}
	if s := Algorithm(-1).String(); s != "Algorithm(-1)" {
		t.Errorf("got %q, want %q", s, "Algorithm(-1)")
	}
	if s := Greedy.String(); s != "Greedy" {
		t.Errorf("got %q, want %q", s, "Greedy")
	}
}
