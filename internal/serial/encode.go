package serial

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// twoDigits spells 00..99: bytes 2i and 2i+1 are the decimal digits of i.
const twoDigits = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// pow10 holds 10^0..10^18.
var pow10 = [19]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// AppendIntText appends the decimal text of v plus a separator: the bytes
// of strconv.AppendInt(dst, v, 10) followed by sep. Values in [0, 1e18)
// are written in place, two digits at a time; the rest take strconv.
func AppendIntText(dst []byte, v int64, sep byte) []byte {
	if v < 0 || v >= 1e18 {
		return append(strconv.AppendInt(dst, v, 10), sep)
	}
	u := uint64(v)
	// bits.Len64(u)*1233>>12 is floor(log10(2^len)), one short of u's
	// digit count or exact.
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	n = max(n, 1)
	dst = slices.Grow(dst, n+1)
	i := len(dst) + n
	dst = dst[:i+1]
	dst[i] = sep
	for u >= 100 {
		q := u / 100
		j := (u - q*100) * 2
		i -= 2
		dst[i], dst[i+1] = twoDigits[j], twoDigits[j+1]
		u = q
	}
	if u >= 10 {
		dst[i-2], dst[i-1] = twoDigits[2*u], twoDigits[2*u+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}

// AppendFloatText appends the shortest-round-trip text of v plus a
// separator.
func AppendFloatText(dst []byte, v float64, sep byte) []byte {
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, sep)
}

// AppendFloatTextPrec appends v with the given significant-digit count.
func AppendFloatTextPrec(dst []byte, v float64, prec int, sep byte) []byte {
	dst = strconv.AppendFloat(dst, v, 'g', prec, 64)
	return append(dst, sep)
}

// EncodeIntsText renders vals as whitespace-separated decimal text with a
// newline every perLine values (records are lines, as the chunk-alignment
// contract requires). perLine <= 0 defaults to 8.
func EncodeIntsText(vals []int64, perLine int) []byte {
	if perLine <= 0 {
		perLine = 8
	}
	out := make([]byte, 0, len(vals)*8)
	for i, v := range vals {
		sep := byte(' ')
		if (i+1)%perLine == 0 || i == len(vals)-1 {
			sep = '\n'
		}
		out = AppendIntText(out, v, sep)
	}
	return out
}

// EncodeFloatsText renders vals as float text, one line per perLine
// values.
func EncodeFloatsText(vals []float64, perLine int) []byte {
	if perLine <= 0 {
		perLine = 8
	}
	out := make([]byte, 0, len(vals)*10)
	for i, v := range vals {
		sep := byte(' ')
		if (i+1)%perLine == 0 || i == len(vals)-1 {
			sep = '\n'
		}
		out = AppendFloatText(out, v, sep)
	}
	return out
}

// Record is one line of mixed tokens.
type Record struct {
	Ints   []int64
	Floats []float64
	// Layout orders the tokens: false = next int, true = next float.
	Layout []bool
}

// EncodeRecordsText renders records as lines of mixed int/float tokens
// following each record's layout.
func EncodeRecordsText(recs []Record) []byte {
	var out []byte
	for _, r := range recs {
		ii, fi := 0, 0
		for k, isFloat := range r.Layout {
			sep := byte(' ')
			if k == len(r.Layout)-1 {
				sep = '\n'
			}
			if isFloat {
				out = AppendFloatText(out, r.Floats[fi], sep)
				fi++
			} else {
				out = AppendIntText(out, r.Ints[ii], sep)
				ii++
			}
		}
	}
	return out
}

// DecodeI32 interprets b as little-endian int32s.
func DecodeI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// DecodeI64 interprets b as little-endian int64s.
func DecodeI64(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// DecodeF32 interprets b as little-endian float32s.
func DecodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// DecodeF64 interprets b as little-endian float64s.
func DecodeF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// EncodeI32 renders vals as little-endian bytes (object arrays for tests).
func EncodeI32(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// EncodeF64 renders vals as little-endian bytes.
func EncodeF64(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}
