package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"mqo/internal/algebra"
)

// Row is one stored tuple.
type Row []algebra.Value

// Clone deep-copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// encodedLen is the length of v's serialized form: one type byte followed by
// a fixed 8-byte payload for numerics or a u16-length-prefixed byte string.
func encodedLen(v algebra.Value) int {
	if v.Typ == algebra.TString {
		return 3 + len(v.S)
	}
	return 9
}

// appendValue appends v's serialized form to buf.
func appendValue(buf []byte, v algebra.Value) []byte {
	buf = append(buf, byte(v.Typ))
	switch v.Typ {
	case algebra.TInt, algebra.TDate:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	case algebra.TFloat:
		buf = binary.LittleEndian.AppendUint64(buf, floatBits(v.F))
	case algebra.TString:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v.S)))
		buf = append(buf, v.S...)
	}
	return buf
}

// encodeRow serializes a row, value after value.
func encodeRow(r Row) []byte {
	size := 0
	for _, v := range r {
		size += encodedLen(v)
	}
	buf := make([]byte, 0, size)
	for _, v := range r {
		buf = appendValue(buf, v)
	}
	return buf
}

// valueSize reports the encoded length of the value at the head of buf,
// rejecting an unknown type byte and a value the buffer cuts short.
func valueSize(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("storage: empty value")
	}
	size := 9
	switch typ := algebra.Type(buf[0]); typ {
	case algebra.TInt, algebra.TDate, algebra.TFloat:
	case algebra.TString:
		if len(buf) < 3 {
			return 0, fmt.Errorf("storage: truncated string length")
		}
		size = 3 + int(binary.LittleEndian.Uint16(buf[1:]))
	default:
		return 0, fmt.Errorf("storage: unknown value type %d", typ)
	}
	if len(buf) < size {
		return 0, fmt.Errorf("storage: truncated value of type %d", buf[0])
	}
	return size, nil
}

// decodeValue parses one serialized value into *v and reports the bytes it
// took.
func decodeValue(v *algebra.Value, buf []byte) (int, error) {
	size, err := valueSize(buf)
	if err != nil {
		return 0, err
	}
	decodeAt(v, buf, 0)
	return size, nil
}

// decodeAt parses the value at buf[off:], which locate or valueSize has
// already checked, into *v, in place: a row's values are not built and then
// copied.
func decodeAt(v *algebra.Value, buf []byte, off int) {
	switch typ := algebra.Type(buf[off]); typ {
	case algebra.TInt, algebra.TDate:
		*v = algebra.Value{Typ: typ, I: int64(binary.LittleEndian.Uint64(buf[off+1:]))}
	case algebra.TFloat:
		*v = algebra.Value{Typ: typ, F: bitsFloat(binary.LittleEndian.Uint64(buf[off+1:]))}
	default:
		n := int(binary.LittleEndian.Uint16(buf[off+1:]))
		*v = algebra.Value{Typ: typ, S: string(buf[off+3 : off+3+n])}
	}
}

// fixedWidth reports whether buf holds numeric values alone: 9·n bytes with
// a numeric type byte at every 9·i. The walk steps over such a record nine
// bytes at a time, so it parses as n values, value i at 9·i.
func fixedWidth(buf []byte) bool {
	if len(buf)%9 != 0 {
		return false
	}
	for i := 0; i < len(buf); i += 9 {
		switch algebra.Type(buf[i]) {
		case algebra.TInt, algebra.TDate, algebra.TFloat:
		default:
			return false
		}
	}
	return true
}

// locate checks a serialized row in full and appends to offs the offset of
// the value at each of the positions cols, which must ascend; nil cols stands
// for every position. A fixed-width record is read at 9·col; any other is
// walked once, a value nobody asked for stepped over by its encoded length,
// but still checked, so a damaged record errors whichever columns are read.
func locate(offs []int, buf []byte, cols []int) ([]int, error) {
	if !fixedWidth(buf) {
		return locateWalk(offs, buf, cols)
	}
	n := len(buf) / 9
	if cols == nil {
		for i := 0; i < n; i++ {
			offs = append(offs, 9*i)
		}
		return offs, nil
	}
	for _, c := range cols {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("storage: column %d requested of a shorter row", c)
		}
		offs = append(offs, 9*c)
	}
	return offs, nil
}

// locateWalk is locate for any record.
func locateWalk(offs []int, buf []byte, cols []int) ([]int, error) {
	k := 0
	for i, off := 0, 0; off < len(buf); i++ {
		size, ok := 9, true
		switch algebra.Type(buf[off]) {
		case algebra.TInt, algebra.TDate, algebra.TFloat:
		case algebra.TString:
			if ok = off+3 <= len(buf); ok {
				size = 3 + int(binary.LittleEndian.Uint16(buf[off+1:]))
			}
		default:
			ok = false
		}
		if !ok || off+size > len(buf) {
			_, err := valueSize(buf[off:]) // says what is wrong
			return nil, err
		}
		if cols == nil || (k < len(cols) && cols[k] == i) {
			offs = append(offs, off)
			k++
		}
		off += size
	}
	if k < len(cols) {
		return nil, fmt.Errorf("storage: column %d requested of a shorter row", cols[k])
	}
	return offs, nil
}

// decodeRow appends to dst the values of a serialized row at the ascending
// positions cols (nil: all), checking the whole record (locate). A value
// nobody asked for becomes no Value and no string.
func decodeRow(dst Row, buf []byte, cols []int) (Row, error) {
	var at [32]int
	offs, err := locate(at[:0], buf, cols)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = slices.Grow(dst, len(offs))[:start+len(offs)]
	for k, off := range offs {
		decodeAt(&dst[start+k], buf, off)
	}
	return dst, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
