package exec

import (
	"math"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// fuzzValue is a value made from raw bits: an int, a date, a float of any
// payload, a prefix or a suffix of s, and, so that ties and dense key sets
// are common, a small int, a small date or a small float that may be
// integral or not.
func fuzzValue(kind uint8, bits uint64, s string) algebra.Value {
	small := int64(int16(bits))
	switch kind % 8 {
	case 0:
		return algebra.IntVal(int64(bits))
	case 1:
		return algebra.DateVal(int64(bits))
	case 2:
		return algebra.FloatVal(math.Float64frombits(bits))
	case 3:
		return algebra.StringVal(s[:bits%uint64(len(s)+1)])
	case 4:
		return algebra.IntVal(small)
	case 5:
		return algebra.DateVal(small)
	case 7:
		return algebra.StringVal(s[bits%uint64(len(s)+1):])
	}
	return algebra.FloatVal(float64(small) / float64(1+bits>>16&1))
}

// FuzzCompareOrder holds algebra.Compare to a total order over values built
// from raw bits — ints, dates, floats of every payload, strings — and the
// executor's key tests to it: values that Compare equal hash alike
// (keyHash), and a join's one-column key gate, asked by value (gate.key),
// finds a probe exactly when some held key Compares equal to it, both from
// the bucket table's hashes and, whenever the held keys allow one, from a
// bitmap (keyBits). A sort's keys (sortKey) never order two values against
// Compare, within numbers, within strings and in a column mixing both, and
// two numbers have equal keys exactly when they compare equal. The committed
// corpus holds NaNs of two payloads and signs, signed zeros, infinities,
// 2^53 against 2^53+1, an int against a string, "abc" against "abc\x00" and
// brands sharing their first 8 bytes, and, for the key gate, NaN keys probed
// by other payloads and a -0 key probed by 0.
//
//	go test -run '^$' -fuzz FuzzCompareOrder ./internal/exec
func FuzzCompareOrder(f *testing.F) {
	f.Add(uint8(2), uint64(0x7ff8000000000001), uint8(2), uint64(0xfff8000000000002), uint8(6), uint64(0x10003), "ab")
	f.Fuzz(func(t *testing.T, ka uint8, a uint64, kb uint8, b uint64, kc uint8, c uint64, s string) {
		vals := []algebra.Value{fuzzValue(ka, a, s), fuzzValue(kb, b, s), fuzzValue(kc, c, s)}
		cmp := func(x, y algebra.Value) int { return max(-1, min(1, algebra.Compare(x, y))) }
		for _, x := range vals {
			if cmp(x, x) != 0 {
				t.Fatalf("Compare(%v, itself) = %d", x, cmp(x, x))
			}
			for _, y := range vals {
				if cmp(x, y) != -cmp(y, x) {
					t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", x, y, cmp(x, y), y, x, cmp(y, x))
				}
				if cmp(x, y) == 0 && keyHash(storage.Row{x}, []int{0}) != keyHash(storage.Row{y}, []int{0}) {
					t.Fatalf("%v and %v Compare equal but hash apart", x, y)
				}
				if mx, my := sortKey(&x, true), sortKey(&y, true); mx < my && cmp(x, y) >= 0 {
					t.Fatalf("in a mixed column %v keys %#x below %v's %#x, but Compare gives %d", x, mx, y, my, cmp(x, y))
				}
				if x.IsNumeric() != y.IsNumeric() {
					continue
				}
				kx, ky := sortKey(&x, false), sortKey(&y, false)
				if kx < ky && cmp(x, y) >= 0 {
					t.Fatalf("%v keys %#x below %v's %#x, but Compare gives %d", x, kx, y, ky, cmp(x, y))
				}
				if x.IsNumeric() && (kx == ky) != (cmp(x, y) == 0) {
					t.Fatalf("%v and %v key %#x and %#x, and Compare gives %d", x, y, kx, ky, cmp(x, y))
				}
				for _, z := range vals {
					// x ≤ y ≤ z gives x ≤ z, strictly if either step is.
					if xy, yz := cmp(x, y), cmp(y, z); xy <= 0 && yz <= 0 && cmp(x, z) != min(xy, yz) {
						t.Fatalf("Compare is not transitive: %v, %v, %v give %d, %d and %d", x, y, z, xy, yz, cmp(x, z))
					}
				}
			}
		}
		held := []storage.Row{{vals[0]}, {vals[1]}}
		probes := append(vals, algebra.FloatVal(math.NaN()), algebra.FloatVal(math.Copysign(0, -1)))
		for _, v := range vals {
			if k, ok := exactInt(&v); ok {
				probes = append(probes, algebra.IntVal(k-1), algebra.FloatVal(float64(k+1)), algebra.DateVal(k))
			}
		}
		j := &nlJoin{bucketOf: map[uint64]int32{}}
		for b, r := range held {
			j.bucketOf[keyHash(r, []int{0})] = int32(b)
		}
		key := j.keyGate([]int{0}, nil).key
		for _, test := range []string{"hash", "bitmap"} {
			if test == "bitmap" && !j.bits.build(held, 0) {
				break
			}
			for _, p := range probes {
				want := cmp(p, vals[0]) == 0 || cmp(p, vals[1]) == 0
				if got := key(p); got != want {
					t.Fatalf("the %s key gate over held %v, %v finds %v: %v, want %v", test, vals[0], vals[1], p, got, want)
				}
			}
		}
	})
}
