// Package workload generates the benchmark inputs of Table I: graph edge
// lists (PageRank, BFS), dictionary-encoded text (Grep, WordCount), dense
// matrices (Gaussian, LUD), point sets (Kmeans, NN), unsorted arrays
// (HybridSort), and sparse-matrix triples (SpMV). All generators are
// deterministic under a seed and emit text shards — one shard per I/O
// thread, mirroring how MPI and mapreduce-style inputs are stored — whose
// records are newline-terminated lines of whitespace-separated tokens.
//
// Following the paper's §VI-B selection criteria, inputs "mainly consist
// of integers" (the Tensilica cores have no FPU); only the SpMV input
// carries floating-point text, which is exactly what makes its Morpheus
// speedup collapse in Figure 8.
package workload

import (
	"math/rand"
	"strconv"

	"morpheus/internal/serial"
	"morpheus/internal/units"
)

// Shards is a sharded text input: one byte slice per I/O thread.
type Shards [][]byte

// TotalSize returns the summed shard size.
func (s Shards) TotalSize() units.Bytes {
	var n units.Bytes
	for _, sh := range s {
		n += units.Bytes(len(sh))
	}
	return n
}

// splitCounts divides n items into k nearly-equal counts.
func splitCounts(n int64, k int) []int64 {
	if k <= 0 {
		k = 1
	}
	out := make([]int64, k)
	base := n / int64(k)
	rem := n % int64(k)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// intWidth is the text width of one token, its separator included, for
// integers in [lo, hi]. Generators reserve count*intWidth bytes per shard
// so the buffer never regrows.
func intWidth(lo, hi int64) int64 {
	return int64(max(len(strconv.FormatInt(lo, 10)), len(strconv.FormatInt(hi, 10)))) + 1
}

// IDBase offsets every generated identifier so tokens have the uniform
// 8-digit width of web-scale datasets (node ids, dictionary ids), keeping
// the text-to-binary ratio representative independent of -scale.
const IDBase = 10_000_000

// EdgeList generates a power-law-ish directed graph edge list of m edges
// over n nodes (an RMAT-flavoured sampler), as "u v" lines — the PageRank
// and BFS input shape.
func EdgeList(n int64, m int64, shards int, seed int64) Shards {
	counts := splitCounts(m, shards)
	out := make(Shards, len(counts))
	w := 2 * intWidth(IDBase, IDBase+max(n-1, 0))
	for s, cnt := range counts {
		rng := rand.New(rand.NewSource(seed + int64(s)*7919))
		buf := make([]byte, 0, cnt*w)
		for i := int64(0); i < cnt; i++ {
			u := rmatNode(rng, n) + IDBase
			v := rmatNode(rng, n) + IDBase
			buf = serial.AppendIntText(buf, u, ' ')
			buf = serial.AppendIntText(buf, v, '\n')
		}
		out[s] = buf
	}
	return out
}

// rmatUpper is a+b, the upper-half bias, scaled by 2^63.
const rmatUpper = 0.76 * (1 << 63)

// rmatNode samples a node id with recursive quadrant probabilities
// (a=0.57, b=0.19, c=0.19, d=0.05), the Graph500/RMAT skew. Each level
// takes the draws rng.Float64() would, Int63()/2^63 redrawn when it rounds
// to 1, and compares them against 0.76 without that (exact) division.
func rmatNode(rng *rand.Rand, n int64) int64 {
	lo, hi := int64(0), n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		f := float64(rng.Int63())
		for f == 1<<63 {
			f = float64(rng.Int63())
		}
		// One select per bound, so each compiles to a conditional move:
		// the 76/24 draw defeats branch prediction.
		up := f < rmatUpper
		if !up {
			lo = mid
		}
		if up {
			hi = mid
		}
	}
	return lo
}

// IntArray generates m uniform integers in [0, bound) as text, perLine per
// line — the HybridSort input and the generic "ASCII integers" microbench.
func IntArray(m int64, bound int64, perLine int, shards int, seed int64) Shards {
	if perLine <= 0 {
		perLine = 8
	}
	counts := splitCounts(m, shards)
	out := make(Shards, len(counts))
	w := intWidth(0, bound-1)
	for s, cnt := range counts {
		rng := rand.New(rand.NewSource(seed + int64(s)*104729))
		buf := make([]byte, 0, cnt*w)
		for i := int64(0); i < cnt; i++ {
			sep := byte(' ')
			if (i+1)%int64(perLine) == 0 || i == cnt-1 {
				sep = '\n'
			}
			buf = serial.AppendIntText(buf, rng.Int63n(bound), sep)
		}
		out[s] = buf
	}
	return out
}

// DictionaryText generates word-id streams with a Zipfian distribution
// over a vocabulary of v words, one "document" of docLen ids per line —
// the Grep and WordCount input (dictionary-encoded, keeping the token
// stream integral per the paper's selection criteria).
func DictionaryText(tokens int64, vocab int64, docLen int, shards int, seed int64) Shards {
	if docLen <= 0 {
		docLen = 16
	}
	counts := splitCounts(tokens, shards)
	out := make(Shards, len(counts))
	w := intWidth(IDBase, IDBase+max(vocab-1, 0))
	for s, cnt := range counts {
		rng := rand.New(rand.NewSource(seed + int64(s)*1299709))
		buf := make([]byte, 0, cnt*w)
		for i := int64(0); i < cnt; i++ {
			id := zipf(rng, vocab) + IDBase
			sep := byte(' ')
			if (i+1)%int64(docLen) == 0 || i == cnt-1 {
				sep = '\n'
			}
			buf = serial.AppendIntText(buf, id, sep)
		}
		out[s] = buf
	}
	return out
}

func zipf(rng *rand.Rand, n int64) int64 {
	// Approximate Zipf(s≈1) via inverse-power sampling.
	u := rng.Float64()
	v := int64(float64(n) * u * u * u)
	if v >= n {
		v = n - 1
	}
	return v
}

// DenseMatrix generates an r x c matrix of integer coefficients in
// [-bound, bound], one row per line — the Gaussian and LUD inputs.
func DenseMatrix(r, c int64, bound int64, shards int, seed int64) Shards {
	counts := splitCounts(r, shards)
	out := make(Shards, len(counts))
	w := intWidth(-bound, bound)
	for s, rows := range counts {
		rng := rand.New(rand.NewSource(seed + int64(s)*15485863))
		buf := make([]byte, 0, rows*c*w)
		for i := int64(0); i < rows; i++ {
			for j := int64(0); j < c; j++ {
				sep := byte(' ')
				if j == c-1 {
					sep = '\n'
				}
				buf = serial.AppendIntText(buf, rng.Int63n(2*bound+1)-bound, sep)
			}
		}
		out[s] = buf
	}
	return out
}

// Points generates m points of dim integer features, one point per line —
// the Kmeans and NN inputs.
func Points(m int64, dim int, bound int64, shards int, seed int64) Shards {
	counts := splitCounts(m, shards)
	out := make(Shards, len(counts))
	w := intWidth(-bound, bound)
	for s, cnt := range counts {
		rng := rand.New(rand.NewSource(seed + int64(s)*32452843))
		buf := make([]byte, 0, cnt*int64(dim)*w)
		for i := int64(0); i < cnt; i++ {
			for d := 0; d < dim; d++ {
				sep := byte(' ')
				if d == dim-1 {
					sep = '\n'
				}
				buf = serial.AppendIntText(buf, rng.Int63n(2*bound+1)-bound, sep)
			}
		}
		out[s] = buf
	}
	return out
}

// SparseTriples generates nnz sparse-matrix entries as "row col value"
// lines where value is floating-point text — the SpMV input, whose float
// tokens ("33% of the strings") software-emulated FP makes expensive on
// the embedded cores.
func SparseTriples(rows, cols, nnz int64, shards int, seed int64) Shards {
	counts := splitCounts(nnz, shards)
	out := make(Shards, len(counts))
	// A 6-digit %g value in [-1, 1) is at most 12 bytes: -1.23457e-16.
	w := intWidth(IDBase, IDBase+max(rows-1, 0)) + intWidth(IDBase, IDBase+max(cols-1, 0)) + 13
	for s, cnt := range counts {
		rng := rand.New(rand.NewSource(seed + int64(s)*49979687))
		buf := make([]byte, 0, cnt*w)
		for i := int64(0); i < cnt; i++ {
			buf = serial.AppendIntText(buf, rng.Int63n(rows)+IDBase, ' ')
			buf = serial.AppendIntText(buf, rng.Int63n(cols)+IDBase, ' ')
			buf = serial.AppendFloatTextPrec(buf, rng.Float64()*2-1, 6, '\n')
		}
		out[s] = buf
	}
	return out
}
