// The batched-serving smoke: runs the E16 submission sweep and publishes
// the per-command host submission overhead at each (batch, window) depth
// — as benchmark metrics and, when MORPHEUS_BENCH_SERVE_OUT names a
// file, as a BENCH_serve.json record for CI to archive:
//
//	MORPHEUS_BENCH_SERVE_OUT=BENCH_serve.json \
//	  go test -bench ServeBatching -run '^$' .
//
// The overhead numbers are virtual time, so they are byte-stable across
// machines and runs; the structural checks (batching reduces overhead at
// depth >= 8, served bytes identical to command-at-a-time) must always
// hold.
package morpheus

import (
	"encoding/json"
	"os"
	"testing"

	"morpheus/internal/exp"
)

// serveResult is the BENCH_serve.json schema (documented in
// EXPERIMENTS.md §E16): the submission-overhead sweep plus the headline
// reduction factor.
type serveResult struct {
	Experiment string  `json:"experiment"` // which sweep was run
	Scale      float64 `json:"scale"`      // input scale (fraction of Table I)
	Seed       int64   `json:"seed"`       // workload generator seed
	// MaxReduction is the best per-command submit-overhead reduction over
	// command-at-a-time submission anywhere in the grid.
	MaxReduction float64        `json:"max_reduction"`
	Rows         []serveRowJSON `json:"rows"`
}

// serveRowJSON is one grid point of the sweep.
type serveRowJSON struct {
	App            string  `json:"app"`
	Batch          int     `json:"batch"`
	Window         int     `json:"window"`
	ThroughputMBs  float64 `json:"throughput_mbs"`
	P99PS          int64   `json:"mread_p99_ps"`
	OverheadPS     float64 `json:"submit_overhead_ps"`
	BaseOverheadPS float64 `json:"submit_overhead_at_1_ps"`
	Reduction      float64 `json:"reduction"`
	Doorbells      int64   `json:"doorbells"`
	SQEs           int64   `json:"sqes"`
	Coalesce       float64 `json:"coalesce"`
}

// logTable prints an experiment's table under -v.
func logTable(b *testing.B, t *exp.Table) {
	b.Helper()
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkServeBatching runs the E16 sweep and checks its acceptance
// property: batched submission reduces per-command host submit overhead
// at every depth >= 8 (the sweep itself byte-compares the served objects
// against command-at-a-time inside each point).
func BenchmarkServeBatching(b *testing.B) {
	o := exp.DefaultOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunServe(o)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		logTable(b, r.Table())
		res := serveResult{
			Experiment:   "serve",
			Scale:        o.Scale,
			Seed:         o.Seed,
			MaxReduction: r.MaxReduction,
		}
		for _, row := range r.Rows {
			if row.Batch >= 8 && row.Reduction <= 1 {
				b.Fatalf("%s (%d,%d): submit overhead %.0f ps/cmd did not drop below command-at-a-time %.0f ps/cmd",
					row.App, row.Batch, row.Window, row.OverheadPS, row.BaseOverheadPS)
			}
			res.Rows = append(res.Rows, serveRowJSON{
				App:            row.App,
				Batch:          row.Batch,
				Window:         row.Window,
				ThroughputMBs:  row.Throughput,
				P99PS:          int64(row.P99),
				OverheadPS:     row.OverheadPS,
				BaseOverheadPS: row.BaseOverheadPS,
				Reduction:      row.Reduction,
				Doorbells:      row.Doorbells,
				SQEs:           row.SQEs,
				Coalesce:       row.Coalesce,
			})
		}
		b.ReportMetric(res.MaxReduction, "max-reduction")
		if path := os.Getenv("MORPHEUS_BENCH_SERVE_OUT"); path != "" {
			data, err := json.MarshalIndent(res, "", " ")
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
}
