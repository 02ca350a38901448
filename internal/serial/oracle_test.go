package serial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The oracle is the object builder as it was before the one-pass parser:
// split the chunk into a token slice, then convert every token with
// strconv. The fuzz targets require the production parsers to build
// byte-identical objects, or fail with the same error, on any input.

// oracleTokenize splits b into whitespace/comma-separated tokens.
func oracleTokenize(b []byte) [][]byte {
	var out [][]byte
	i := 0
	for i < len(b) {
		for i < len(b) && oracleIsSep(b[i]) {
			i++
		}
		start := i
		for i < len(b) && !oracleIsSep(b[i]) {
			i++
		}
		if i > start {
			out = append(out, b[start:i])
		}
	}
	return out
}

func oracleIsSep(c byte) bool {
	return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == ','
}

func oracleParseTokens(chunk []byte, kind FieldKind) ([]byte, error) {
	toks := oracleTokenize(chunk)
	out := make([]byte, 0, len(toks)*kind.Width())
	for _, tok := range toks {
		var err error
		out, err = oracleAppendField(out, tok, kind)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func oracleParseRecords(chunk []byte, fields []FieldKind) ([]byte, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("serial: RecordParser needs at least one field")
	}
	toks := oracleTokenize(chunk)
	if len(toks)%len(fields) != 0 {
		return nil, fmt.Errorf("serial: %d tokens do not fill records of %d fields", len(toks), len(fields))
	}
	var out []byte
	for i, tok := range toks {
		var err error
		out, err = oracleAppendField(out, tok, fields[i%len(fields)])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func oracleAppendField(out []byte, tok []byte, kind FieldKind) ([]byte, error) {
	var buf [8]byte
	if kind.IsFloat() {
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, &ParseError{Token: string(tok), Err: err}
		}
		if kind == FieldFloat32 {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(float32(f)))
			return append(out, buf[:4]...), nil
		}
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(f))
		return append(out, buf[:8]...), nil
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return nil, &ParseError{Token: string(tok), Err: err}
	}
	if kind == FieldInt32 {
		binary.LittleEndian.PutUint32(buf[:4], uint32(int32(n)))
		return append(out, buf[:4]...), nil
	}
	binary.LittleEndian.PutUint64(buf[:8], uint64(n))
	return append(out, buf[:8]...), nil
}

// sameResult fails t unless the parser and the oracle agree: identical
// bytes (nil-ness included) on success, or errors of the same class with
// identical text, which for a *ParseError names the token and the strconv
// cause.
func sameResult(t *testing.T, in []byte, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: error %v, oracle error %v", in, gotErr, wantErr)
	}
	if wantErr != nil {
		var gp, wp *ParseError
		if errors.As(gotErr, &gp) != errors.As(wantErr, &wp) || gotErr.Error() != wantErr.Error() {
			t.Fatalf("input %q: error %q, oracle error %q", in, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("input %q: objects %x, oracle %x", in, got, want)
	}
}

// parserEdgeCases seed both fuzz corpora.
var parserEdgeCases = []string{
	"",
	"1 2 3",
	"999999999999999999 -999999999999999999", // 18 digits: the fast path's limit
	"9223372036854775807 -9223372036854775808", // 19 digits: strconv, in range
	"9999999999999999999 -9999999999999999999", // 19 digits: out of range
	"000000000000000000001",                    // long but small
	"+ -", "+", "-", "+0", "-0", "+-1", "--1", "1-",
	"2147483647 2147483648 -2147483648 -2147483649 4294967296", // int32 wrap-around
	"1\r\n2\r\n", "\r", "1,2,,3,", ",",
	"1.5 -2.25e3 0x1p-2 inf NaN 1e400 1_000",
	"12 abc",
	"1 2 0.5\n3 4 -1.25\n",
	"\x00\xff 7",
	// Tokens the fused integer scan must hand to strconv whole.
	"12a", "1-2", "+-1", "--1", "9223372036854775807x", "7 12a 8",
	// 18 and 19 digits next to each separator.
	"123456789012345678 -123456789012345678\n+123456789012345678\t123456789012345678\r123456789012345678,",
	"1234567890123456789 -1234567890123456789\n+1234567890123456789\t1234567890123456789\r1234567890123456789,",
	"1 2\n3 4\n56", // last token ends the chunk with no separator
}

// layoutFields decodes a record layout of 1–4 fields: the low two bits
// are the field count less one, each next pair of bits one field's kind.
func layoutFields(layout uint16) []FieldKind {
	fields := make([]FieldKind, 1+int(layout&3))
	for i := range fields {
		fields[i] = FieldKind(layout >> (2 + 2*i) & 3)
	}
	return fields
}

func FuzzParseTokens(f *testing.F) {
	for _, s := range parserEdgeCases {
		for k := FieldInt32; k <= FieldFloat64; k++ {
			f.Add([]byte(s), uint8(k))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte, k uint8) {
		kind := FieldKind(k % 4)
		got, gotErr := ParseTokens(in, kind)
		want, wantErr := oracleParseTokens(in, kind)
		sameResult(t, in, got, gotErr, want, wantErr)
	})
}

func FuzzParseRecords(f *testing.F) {
	for i, s := range parserEdgeCases {
		f.Add([]byte(s), uint16(i*37))
	}
	f.Fuzz(func(t *testing.T, in []byte, layout uint16) {
		fields := layoutFields(layout)
		got, gotErr := ParseRecords(in, fields)
		want, wantErr := oracleParseRecords(in, fields)
		sameResult(t, in, got, gotErr, want, wantErr)
	})
}

// TestAppendIntTextMatchesStrconv holds the in-place formatter to
// strconv.AppendInt plus the separator, into a dst with and without spare
// capacity.
func TestAppendIntTextMatchesStrconv(t *testing.T) {
	vals := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for k, p := 0, int64(1); k <= 18; k, p = k+1, p*10 {
		vals = append(vals, p-1, p, p+1, -(p - 1), -p, -(p + 1))
	}
	rng := rand.New(rand.NewSource(20160618))
	for i := 0; i < 1_000_000; i++ {
		v := rng.Int63() >> rng.Intn(63) // every bit length about equally often
		if rng.Intn(4) == 0 {
			v = -v
		}
		vals = append(vals, v)
	}
	spare := make([]byte, 2, 64)
	for _, v := range vals {
		want := append(strconv.AppendInt([]byte("ab"), v, 10), '\n')
		for _, dst := range [][]byte{[]byte("ab")[:2:2], append(spare[:0], "ab"...)} {
			if got := AppendIntText(dst, v, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("AppendIntText(%q, %d) = %q, want %q", dst[:2], v, got, want)
			}
		}
	}
}
