package workload

import (
	"bytes"
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
