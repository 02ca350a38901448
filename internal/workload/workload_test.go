package workload

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"morpheus/internal/serial"
)

func TestDeterminism(t *testing.T) {
	a := EdgeList(1000, 5000, 4, 42)
	b := EdgeList(1000, 5000, 4, 42)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("shards = %d/%d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("shard %d differs across runs with the same seed", i)
		}
	}
	c := EdgeList(1000, 5000, 4, 43)
	if bytes.Equal(a[0], c[0]) {
		t.Fatal("different seeds must produce different data")
	}
}

func TestEdgeListShape(t *testing.T) {
	shards := EdgeList(100, 1000, 2, 1)
	var total int
	for _, sh := range shards {
		toks := bytes.Fields(sh)
		total += len(toks)
		for _, tok := range toks {
			if len(tok) != 8 {
				t.Fatalf("edge token %q is not 8 digits (IDBase offset)", tok)
			}
		}
		// Records are lines of two tokens.
		for _, line := range bytes.Split(bytes.TrimRight(sh, "\n"), []byte("\n")) {
			if got := len(bytes.Fields(line)); got != 2 {
				t.Fatalf("edge line %q has %d tokens", line, got)
			}
		}
	}
	if total != 2000 {
		t.Fatalf("total tokens = %d, want 2000", total)
	}
}

func TestEdgeListParses(t *testing.T) {
	sh := EdgeList(50, 200, 1, 7)[0]
	out, err := serial.ParseTokens(sh, serial.FieldInt32)
	if err != nil {
		t.Fatal(err)
	}
	ids := serial.DecodeI32(out)
	for _, id := range ids {
		if id < IDBase || id >= IDBase+50 {
			t.Fatalf("node id %d outside [IDBase, IDBase+n)", id)
		}
	}
}

func TestIntArray(t *testing.T) {
	shards := IntArray(100, 1<<20, 8, 3, 5)
	var n int
	for _, sh := range shards {
		out, err := serial.ParseTokens(sh, serial.FieldInt64)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range serial.DecodeI64(out) {
			if v < 0 || v >= 1<<20 {
				t.Fatalf("value %d out of range", v)
			}
			n++
		}
		if sh[len(sh)-1] != '\n' {
			t.Fatal("shard must end with a newline")
		}
	}
	if n != 100 {
		t.Fatalf("values = %d", n)
	}
}

func TestDictionaryTextZipfSkew(t *testing.T) {
	sh := DictionaryText(20000, 1000, 16, 1, 9)[0]
	out, err := serial.ParseTokens(sh, serial.FieldInt64)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, v := range serial.DecodeI64(out) {
		if v < IDBase || v >= IDBase+1000 {
			t.Fatalf("id %d out of vocabulary", v)
		}
		counts[v]++
	}
	// Zipf-ish: the most common id should be much more frequent than the
	// median.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 40 { // 20000 tokens over 1000 ids: uniform would be ~20 each
		t.Fatalf("distribution looks uniform (max=%d); expected skew", max)
	}
}

func TestDenseMatrixShape(t *testing.T) {
	shards := DenseMatrix(10, 16, 99999999, 2, 3)
	rows := 0
	for _, sh := range shards {
		for _, line := range bytes.Split(bytes.TrimRight(sh, "\n"), []byte("\n")) {
			if got := len(bytes.Fields(line)); got != 16 {
				t.Fatalf("matrix row has %d columns", got)
			}
			rows++
		}
	}
	if rows != 10 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestPointsShape(t *testing.T) {
	sh := Points(25, 4, 100, 1, 2)[0]
	lines := bytes.Split(bytes.TrimRight(sh, "\n"), []byte("\n"))
	if len(lines) != 25 {
		t.Fatalf("points = %d", len(lines))
	}
	for _, line := range lines {
		if got := len(bytes.Fields(line)); got != 4 {
			t.Fatalf("point has %d dims", got)
		}
	}
}

func TestSparseTriplesParse(t *testing.T) {
	sh := SparseTriples(100, 100, 50, 1, 4)[0]
	p := serial.RecordParser{Fields: []serial.FieldKind{serial.FieldInt32, serial.FieldInt32, serial.FieldFloat64}}
	out := p.Parse(sh, true)
	if len(out) != 50*(4+4+8) {
		t.Fatalf("out = %d bytes", len(out))
	}
	// Values are in [-1, 1].
	for i := 0; i < 50; i++ {
		v := serial.DecodeF64(out[i*16+8 : i*16+16])[0]
		if v < -1 || v > 1 {
			t.Fatalf("value %v out of range", v)
		}
	}
}

func TestShardBalance(t *testing.T) {
	shards := IntArray(1003, 1000, 8, 4, 6)
	if len(shards) != 4 {
		t.Fatalf("shards = %d", len(shards))
	}
	sizes := make([]int, 4)
	for i, sh := range shards {
		sizes[i] = len(bytes.Fields(sh))
	}
	// 1003 over 4: 251,251,251,250.
	if sizes[0] != 251 || sizes[3] != 250 {
		t.Fatalf("sizes = %v", sizes)
	}
	if got := shards.TotalSize(); got <= 0 {
		t.Fatalf("total size = %v", got)
	}
}

// TestGeneratorsAllocateOnce: every generator reserves each shard at a
// per-token width bound taken from its arguments, so it allocates barely
// more than the bytes it returns instead of regrowing its buffers.
func TestGeneratorsAllocateOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() Shards
	}{
		{"EdgeList", func() Shards { return EdgeList(25_000, 200_000, 4, 1) }},
		{"IntArray", func() Shards { return IntArray(300_000, 1<<30, 8, 4, 1) }},
		{"DictionaryText", func() Shards { return DictionaryText(400_000, 200_000, 16, 4, 1) }},
		{"DenseMatrix", func() Shards { return DenseMatrix(150, 2048, 99999999, 4, 1) }},
		{"Points", func() Shards { return Points(20_000, 16, 99999999, 4, 1) }},
		{"SparseTriples", func() Shards { return SparseTriples(8_000, 8_000, 120_000, 4, 1) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		shards := c.gen()
		runtime.ReadMemStats(&after)
		alloc := float64(after.TotalAlloc - before.TotalAlloc)
		ratio := alloc / float64(shards.TotalSize())
		t.Logf("%s: %.3fx", c.name, ratio)
		if ratio > 1.25 {
			t.Errorf("%s allocated %.2fx the %d bytes it returned, want <= 1.25x", c.name, ratio, shards.TotalSize())
		}
	}
}

// scriptedSource replays fixed Int63 values.
type scriptedSource struct {
	vals []int64
	i    int
}

func (s *scriptedSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *scriptedSource) Seed(int64) {}

// TestRmatNodeDrawsLikeFloat64: rmatNode takes and compares exactly the
// draws rng.Float64() < 0.76 would, including Float64's redraw of values
// that round to 1 and the values next to the 0.76 threshold.
func TestRmatNodeDrawsLikeFloat64(t *testing.T) {
	ref := func(rng *rand.Rand, n int64) int64 {
		lo, hi := int64(0), n
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if rng.Float64() < 0.76 {
				hi = mid
			} else {
				lo = mid
			}
		}
		return lo
	}
	upper := rmatUpper
	split := int64(upper)
	vals := []int64{0, 1, math.MaxInt64, math.MaxInt64 - 511, math.MaxInt64 - 512, math.MaxInt64 - 513}
	for d := int64(-1030); d <= 1030; d++ {
		vals = append(vals, split+d)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		vals = append(vals, rng.Int63())
	}
	for _, n := range []int64{2, 3, 1000, 1<<20 + 7} {
		a := rand.New(&scriptedSource{vals: vals})
		b := rand.New(&scriptedSource{vals: vals})
		for k := 0; k < 3000; k++ {
			if want, got := ref(a, n), rmatNode(b, n); got != want {
				t.Fatalf("n=%d draw %d: rmatNode = %d, Float64 sampler = %d", n, k, got, want)
			}
		}
	}
}
