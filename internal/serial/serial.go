// Package serial is the data-interchange substrate: the text encodings the
// benchmark inputs use (whitespace/newline-delimited integer and float
// tokens, the formats §II motivates), the binary object encodings the
// computation kernels consume (little-endian int32/int64/float32/float64
// arrays), and native parsers that convert between them.
//
// The native parsers double as (a) the host-side deserializers of the
// conventional baseline and (b) the native continuations of sampled
// StorageApp execution — so a single implementation is bit-compared
// against the interpreted MorphC StorageApps by the equivalence tests.
package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// FieldKind is the type of one whitespace-separated token.
type FieldKind int

// Field kinds.
const (
	FieldInt32 FieldKind = iota
	FieldInt64
	FieldFloat32
	FieldFloat64
)

// Width returns the binary object size of the field.
func (k FieldKind) Width() int {
	switch k {
	case FieldInt32, FieldFloat32:
		return 4
	default:
		return 8
	}
}

// IsFloat reports whether the token is float-formatted text.
func (k FieldKind) IsFloat() bool { return k == FieldFloat32 || k == FieldFloat64 }

// sepTable marks the bytes that separate tokens: space, tab, CR, LF and
// comma.
var sepTable = [256]bool{' ': true, '\n': true, '\t': true, '\r': true, ',': true}

// countTokens returns the number of separator-delimited tokens in b, so
// the parsers can size their output exactly before the parsing pass.
func countTokens(b []byte) int {
	n := 0
	prev := 1 // 1 after a separator or at the start
	for _, c := range b {
		// Branch-free: a token starts where a separator is followed by a
		// non-separator, and varying token widths defeat prediction.
		cur := 0
		if sepTable[c] {
			cur = 1
		}
		n += prev &^ cur
		prev = cur
	}
	return n
}

// nextToken returns the token starting at or after b[i] and the index
// just past it; the token is empty when only separators remain.
func nextToken(b []byte, i int) ([]byte, int) {
	for i < len(b) && sepTable[b[i]] {
		i++
	}
	start := i
	for i < len(b) && !sepTable[b[i]] {
		i++
	}
	return b[start:i], i
}

// ParseError describes a malformed token.
type ParseError struct {
	Token string
	Err   error
}

func (e *ParseError) Error() string { return fmt.Sprintf("serial: bad token %q: %v", e.Token, e.Err) }

// TokenParser converts every token with one field kind — the shape of the
// paper's flagship workload (ASCII integer streams). It is stateless, so
// any record-aligned chunking works.
type TokenParser struct {
	Kind FieldKind
}

// Parse converts one chunk; malformed tokens panic via mustParse because
// generated inputs are well-formed by construction (tests cover the error
// path through ParseTokens).
func (p TokenParser) Parse(chunk []byte, final bool) []byte {
	out, err := ParseTokens(chunk, p.Kind)
	if err != nil {
		panic(err)
	}
	return out
}

// ParseTokens converts all tokens in chunk to the binary encoding of kind.
// It scans the chunk once to count tokens and once to parse them in place.
func ParseTokens(chunk []byte, kind FieldKind) ([]byte, error) {
	w := kind.Width()
	out := make([]byte, countTokens(chunk)*w)
	var err error
	for off, i := 0, 0; off < len(out); off += w {
		if i, err = putNext(out[off:], chunk, i, kind); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// putNext writes the binary encoding of the token at or after chunk[i]
// into dst, which holds at least kind.Width() bytes, and returns the index
// just past the token. An integer of the form [+-]?[0-9]{1,18}, which
// cannot overflow int64, is converted in the same scan that finds its end;
// every other token takes strconv's path (and its errors).
func putNext(dst, chunk []byte, i int, kind FieldKind) (int, error) {
	for i < len(chunk) && sepTable[chunk[i]] {
		i++
	}
	if !kind.IsFloat() {
		j := i
		if j < len(chunk) && (chunk[j] == '-' || chunk[j] == '+') {
			j++
		}
		digits := j
		var n int64
		for ; j < len(chunk); j++ {
			d := chunk[j] - '0'
			if d > 9 {
				break
			}
			n = n*10 + int64(d)
		}
		if nd := j - digits; nd > 0 && nd <= 18 && (j == len(chunk) || sepTable[chunk[j]]) {
			if chunk[i] == '-' {
				n = -n
			}
			putInt(dst, n, kind)
			return j, nil
		}
	}
	tok, end := nextToken(chunk, i)
	return end, putField(dst, tok, kind)
}

// putInt writes n as kind, truncating to int32 for FieldInt32.
func putInt(dst []byte, n int64, kind FieldKind) {
	if kind == FieldInt32 {
		binary.LittleEndian.PutUint32(dst, uint32(int32(n)))
	} else {
		binary.LittleEndian.PutUint64(dst, uint64(n))
	}
}

// putField converts one token with strconv and writes it into dst, which
// holds at least kind.Width() bytes.
func putField(dst []byte, tok []byte, kind FieldKind) error {
	if kind.IsFloat() {
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return &ParseError{Token: string(tok), Err: err}
		}
		if kind == FieldFloat32 {
			binary.LittleEndian.PutUint32(dst, math.Float32bits(float32(f)))
		} else {
			binary.LittleEndian.PutUint64(dst, math.Float64bits(f))
		}
		return nil
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return &ParseError{Token: string(tok), Err: err}
	}
	putInt(dst, n, kind)
	return nil
}

// RecordParser converts line-structured records whose tokens cycle
// through Fields — e.g. the SpMV triples "row col value" with Fields
// {Int32, Int32, Float64}. It is stateless across record-aligned chunks.
type RecordParser struct {
	Fields []FieldKind
}

// Parse converts one record-aligned chunk.
func (p RecordParser) Parse(chunk []byte, final bool) []byte {
	out, err := ParseRecords(chunk, p.Fields)
	if err != nil {
		panic(err)
	}
	return out
}

// ParseRecords converts tokens cycling through the field kinds.
func ParseRecords(chunk []byte, fields []FieldKind) ([]byte, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("serial: RecordParser needs at least one field")
	}
	n := countTokens(chunk)
	if n%len(fields) != 0 {
		return nil, fmt.Errorf("serial: %d tokens do not fill records of %d fields", n, len(fields))
	}
	if n == 0 {
		return nil, nil
	}
	recWidth := 0
	for _, k := range fields {
		recWidth += k.Width()
	}
	out := make([]byte, n/len(fields)*recWidth)
	var err error
	for off, i := 0, 0; off < len(out); {
		for _, k := range fields {
			if i, err = putNext(out[off:], chunk, i, k); err != nil {
				return nil, err
			}
			off += k.Width()
		}
	}
	return out, nil
}

// RecordAligner cuts a byte stream at record (newline) boundaries so
// chunk-structured parsers see whole records. Carry is the partial
// trailing record held between calls.
type RecordAligner struct{ Carry []byte }

// Align prepends the carried partial record to chunk and returns the whole
// records, carrying the tail to the next call; final flushes everything.
// With no carry the result is a prefix of chunk itself, not a copy, so the
// caller must leave chunk unmodified while it uses the result. Carry is
// always a private copy and never aliases chunk.
func (r *RecordAligner) Align(chunk []byte, final bool) []byte {
	buf := chunk
	if len(r.Carry) > 0 {
		buf = append(r.Carry, chunk...)
	}
	r.Carry = nil
	if final {
		return buf
	}
	i := bytes.LastIndexByte(buf, '\n')
	r.Carry = append([]byte(nil), buf[i+1:]...)
	if i < 0 {
		return nil
	}
	return buf[:i+1]
}

// FloatTextFraction estimates the fraction of input bytes that belong to
// float-formatted tokens for a record layout, given the average token
// widths. Used to parameterize the host parse-cost model per application.
func FloatTextFraction(fields []FieldKind, avgIntWidth, avgFloatWidth float64) float64 {
	if len(fields) == 0 {
		return 0
	}
	var intB, fltB float64
	for _, f := range fields {
		if f.IsFloat() {
			fltB += avgFloatWidth + 1 // token + separator
		} else {
			intB += avgIntWidth + 1
		}
	}
	if intB+fltB == 0 {
		return 0
	}
	return fltB / (intB + fltB)
}
