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

// encodeRow serializes a row: per value, one type byte followed by a fixed
// 8-byte payload for numerics or a u16-length-prefixed byte string.
func encodeRow(r Row) []byte {
	size := 0
	for _, v := range r {
		size++
		if v.Typ == algebra.TString {
			size += 2 + len(v.S)
		} else {
			size += 8
		}
	}
	buf := make([]byte, 0, size)
	for _, v := range r {
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
	}
	return buf
}

// decodeValue parses one serialized value into *v, which must be the zero
// Value, and reports the bytes it took.
func decodeValue(v *algebra.Value, buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("storage: empty value")
	}
	v.Typ = algebra.Type(buf[0])
	switch v.Typ {
	case algebra.TInt, algebra.TDate:
		if len(buf) < 9 {
			return 0, fmt.Errorf("storage: truncated numeric value")
		}
		v.I = int64(binary.LittleEndian.Uint64(buf[1:]))
		return 9, nil
	case algebra.TFloat:
		if len(buf) < 9 {
			return 0, fmt.Errorf("storage: truncated float value")
		}
		v.F = bitsFloat(binary.LittleEndian.Uint64(buf[1:]))
		return 9, nil
	case algebra.TString:
		if len(buf) < 3 {
			return 0, fmt.Errorf("storage: truncated string length")
		}
		n := 3 + int(binary.LittleEndian.Uint16(buf[1:]))
		if len(buf) < n {
			return 0, fmt.Errorf("storage: truncated string payload")
		}
		v.S = string(buf[3:n])
		return n, nil
	default:
		return 0, fmt.Errorf("storage: unknown value type %d", v.Typ)
	}
}

// valueCount counts the values of a serialized row without decoding them,
// so decodeRow can size its row once. A malformed value counts too, and
// ends the count: decoding it is what reports the error.
func valueCount(buf []byte) int {
	n := 0
	for len(buf) > 0 {
		n++
		size := 9
		if algebra.Type(buf[0]) == algebra.TString {
			if len(buf) < 3 {
				break
			}
			size = 3 + int(binary.LittleEndian.Uint16(buf[1:]))
		}
		if len(buf) < size {
			break
		}
		buf = buf[size:]
	}
	return n
}

// decodeRow parses a serialized row into a freshly allocated Row the caller
// owns.
func decodeRow(buf []byte) (Row, error) {
	r := make(Row, valueCount(buf))
	for i := range r {
		n, err := decodeValue(&r[i], buf)
		if err != nil {
			return nil, err
		}
		buf = buf[n:]
	}
	return r, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
