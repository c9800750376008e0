package algebra

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{IntVal(3), IntVal(2), 1},
		{FloatVal(1.5), IntVal(2), -1},
		{IntVal(2), FloatVal(1.5), 1},
		{DateVal(100), DateVal(100), 0},
		{StringVal("a"), StringVal("b"), -1},
		{StringVal("b"), StringVal("b"), 0},
		{IntVal(5), StringVal("a"), -1}, // numbers order before strings
		{StringVal("a"), IntVal(5), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareFloatOrder: numbers order as PostgreSQL orders floats. The
// ranks below are that order, ties sharing a rank: -0 equals 0, every NaN
// equals every other whatever its sign and payload, and NaN is above +Inf.
func TestCompareFloatOrder(t *testing.T) {
	ranked := []struct {
		f    float64
		rank int
	}{
		{math.Inf(-1), 0}, {-math.MaxFloat64, 1}, {-1, 2}, {math.Copysign(0, -1), 3}, {0, 3},
		{math.SmallestNonzeroFloat64, 4}, {1, 5}, {math.MaxFloat64, 6}, {math.Inf(1), 7},
		{math.NaN(), 8}, {math.Float64frombits(0xfff8000000000001), 8}, {math.Float64frombits(0x7ff8000000000ace), 8},
	}
	for _, a := range ranked {
		for _, b := range ranked {
			if got, want := CompareFloat(a.f, b.f), cmp.Compare(a.rank, b.rank); got != want {
				t.Errorf("CompareFloat(%v, %v) = %d, want %d", a.f, b.f, got, want)
			}
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	gen := func(r *rand.Rand) Value {
		switch r.Intn(4) {
		case 0:
			return IntVal(r.Int63n(100))
		case 1:
			return FloatVal(r.Float64() * 100)
		case 2:
			return DateVal(r.Int63n(100))
		default:
			return StringVal(string(rune('a' + r.Intn(26))))
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparisonFingerprintSymmetry(t *testing.T) {
	a, b := Col("r", "x"), Col("s", "y")
	c1 := Comparison{L: ColExpr{C: a}, Op: LT, R: ColExpr{C: b}}
	c2 := Comparison{L: ColExpr{C: b}, Op: GT, R: ColExpr{C: a}}
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Errorf("flipped comparison fingerprints differ: %q vs %q", c1.Fingerprint(), c2.Fingerprint())
	}
}

func TestPredicateFingerprintOrderIndependence(t *testing.T) {
	p1 := Cmp(Col("r", "a"), EQ, IntVal(1)).And(Cmp(Col("r", "b"), GT, IntVal(2)))
	p2 := Cmp(Col("r", "b"), GT, IntVal(2)).And(Cmp(Col("r", "a"), EQ, IntVal(1)))
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Errorf("conjunct order changed fingerprint: %q vs %q", p1.Fingerprint(), p2.Fingerprint())
	}
}

func TestImplies(t *testing.T) {
	col := Col("r", "a")
	cases := []struct {
		p, q Predicate
		want bool
	}{
		{Cmp(col, LT, IntVal(5)), Cmp(col, LT, IntVal(10)), true},
		{Cmp(col, LT, IntVal(10)), Cmp(col, LT, IntVal(5)), false},
		{Cmp(col, LE, IntVal(5)), Cmp(col, LT, IntVal(10)), true},
		{Cmp(col, EQ, IntVal(5)), Cmp(col, LT, IntVal(10)), true},
		{Cmp(col, EQ, IntVal(10)), Cmp(col, LT, IntVal(10)), false},
		{Cmp(col, GE, IntVal(10)), Cmp(col, GE, IntVal(5)), true},
		{Cmp(col, GE, IntVal(5)), Cmp(col, GE, IntVal(10)), false},
		{Cmp(col, GT, IntVal(5)), Cmp(col, GE, IntVal(5)), true},
		{Cmp(col, EQ, IntVal(5)), Cmp(col, EQ, IntVal(5)), true},
		{Cmp(col, EQ, IntVal(5)), Cmp(col, NE, IntVal(6)), true},
		{Cmp(col, EQ, IntVal(5)), TruePred(), true},
		{Cmp(Col("r", "b"), LT, IntVal(5)), Cmp(col, LT, IntVal(10)), false}, // different columns
		{Cmp(col, LT, IntVal(5)), Cmp(col, GT, IntVal(1)), false},            // not provable
	}
	for i, c := range cases {
		if got := c.p.Implies(c.q); got != c.want {
			t.Errorf("case %d: (%v).Implies(%v) = %v, want %v", i, c.p, c.q, got, c.want)
		}
	}
}

func TestImpliesTransitiveProperty(t *testing.T) {
	col := Col("r", "a")
	f := func(a, b, c int16) bool {
		p := Cmp(col, LT, IntVal(int64(a)))
		q := Cmp(col, LT, IntVal(int64(b)))
		r := Cmp(col, LT, IntVal(int64(c)))
		if p.Implies(q) && q.Implies(r) {
			return p.Implies(r)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEquiJoinColumns(t *testing.T) {
	left := Schema{{Col: Col("r", "a"), Typ: TInt}}
	right := Schema{{Col: Col("s", "b"), Typ: TInt}}
	p := ColEq(Col("s", "b"), Col("r", "a")) // reversed order in predicate
	l, r := p.EquiJoinColumns(left, right)
	if len(l) != 1 || l[0] != Col("r", "a") || r[0] != Col("s", "b") {
		t.Errorf("EquiJoinColumns = %v, %v", l, r)
	}
}

func TestOpFingerprints(t *testing.T) {
	j1 := Join{Pred: ColEq(Col("a", "x"), Col("b", "y"))}
	j2 := Join{Pred: ColEq(Col("b", "y"), Col("a", "x"))}
	if j1.Fingerprint() != j2.Fingerprint() {
		t.Errorf("join fingerprints differ for symmetric predicates")
	}
	a1 := Aggregate{GroupBy: []Column{Col("r", "a"), Col("r", "b")}, Aggs: nil}
	a2 := Aggregate{GroupBy: []Column{Col("r", "b"), Col("r", "a")}, Aggs: nil}
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Errorf("aggregate fingerprints differ for permuted group-by")
	}
}

func TestPredicateHasParam(t *testing.T) {
	p := CmpParam(Col("r", "a"), EQ, "pk")
	if !p.HasParam() {
		t.Error("CmpParam predicate should report HasParam")
	}
	if Cmp(Col("r", "a"), EQ, IntVal(1)).HasParam() {
		t.Error("constant predicate should not report HasParam")
	}
}

func TestSchemaOps(t *testing.T) {
	s := Schema{{Col: Col("r", "a"), Typ: TInt}, {Col: Col("r", "b"), Typ: TString}}
	if s.IndexOf(Col("r", "b")) != 1 {
		t.Error("IndexOf wrong")
	}
	if s.IndexOf(Col("x", "b")) != -1 {
		t.Error("IndexOf should be -1 for missing column")
	}
	if !s.HasAll([]Column{Col("r", "a"), Col("r", "b")}) {
		t.Error("HasAll failed")
	}
	if s.HasAll([]Column{Col("r", "a"), Col("x", "c")}) {
		t.Error("HasAll should fail for missing column")
	}
	cat := s.Concat(Schema{{Col: Col("t", "c"), Typ: TFloat}})
	if len(cat) != 3 {
		t.Error("Concat length wrong")
	}
}

func TestCmpOpEval(t *testing.T) {
	if !LT.Eval(IntVal(1), IntVal(2)) || LT.Eval(IntVal(2), IntVal(2)) {
		t.Error("LT eval wrong")
	}
	if !NE.Eval(IntVal(1), IntVal(2)) || NE.Eval(IntVal(2), IntVal(2)) {
		t.Error("NE eval wrong")
	}
	if !GE.Eval(IntVal(2), IntVal(2)) {
		t.Error("GE eval wrong")
	}
}
