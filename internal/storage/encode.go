package storage

import (
	"encoding/binary"
	"fmt"
	"math"

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

// decodeValue parses one serialized value into *v, which must be the zero
// Value, and reports the bytes it took.
func decodeValue(v *algebra.Value, buf []byte) (int, error) {
	size, err := valueSize(buf)
	if err != nil {
		return 0, err
	}
	v.Typ = algebra.Type(buf[0])
	switch v.Typ {
	case algebra.TInt, algebra.TDate:
		v.I = int64(binary.LittleEndian.Uint64(buf[1:]))
	case algebra.TFloat:
		v.F = bitsFloat(binary.LittleEndian.Uint64(buf[1:]))
	case algebra.TString:
		v.S = string(buf[3:size])
	}
	return size, nil
}

// decodeRow walks a serialized row once and appends to dst the values at the
// positions cols, which must ascend; nil cols stands for every position. A
// value nobody asked for is stepped over by its encoded length — no Value,
// no string — but still checked, so a damaged record errors whichever
// columns are read.
func decodeRow(dst Row, buf []byte, cols []int) (Row, error) {
	k := 0
	for i := 0; len(buf) > 0; i++ {
		size := 0
		var err error
		if cols == nil || (k < len(cols) && cols[k] == i) {
			dst = append(dst, algebra.Value{})
			size, err = decodeValue(&dst[len(dst)-1], buf)
			k++
		} else {
			size, err = valueSize(buf)
		}
		if err != nil {
			return nil, err
		}
		buf = buf[size:]
	}
	if k < len(cols) {
		return nil, fmt.Errorf("storage: column %d requested of a shorter row", cols[k])
	}
	return dst, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
