package exp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// tabler is the slice of each experiment the determinism suite needs.
type tabler interface{ Table() *Table }

// ablationTables adapts the ablation's sub-tables to tabler: one table
// whose notes are the sub-tables' renderings, in order.
type ablationTables struct{ *AblationResult }

func (a ablationTables) Table() *Table {
	t := &Table{Title: "ablation"}
	for _, sub := range a.Tables() {
		t.Notes = append(t.Notes, sub.String())
	}
	return t
}

// parallelCases are the experiments the byte-identity guarantee is
// checked against: the headline figure, the power figure (whose rows
// depend on per-run system state), the end-to-end sweep (whose GPU
// points add a verified NVMe-P2P run), the fault campaign (whose rows
// depend on hash-derived fault injection and per-scenario mutation),
// Figure 3 (whose ratios sum cells across points), and the ablation
// (whose points are sub-tables with per-variant config mutators).
var parallelCases = []struct {
	name  string
	heavy bool
	// scale overrides the suite's default input scale (0 keeps it). The
	// high-event-count row runs enough simulated time that the time wheel
	// must cascade across every level and spill past its horizon into the
	// overflow/rebase path (see TestEngineOverflowOnRealWorkload in
	// internal/core for the proof that this regime is reached).
	scale float64
	// oneSeed runs the row at the first seed only: the ablation's wear
	// sweep is fixed-size and seed-independent, so more seeds mostly
	// repeat it.
	oneSeed bool
	run     func(Options) (tabler, error)
}{
	{"fig8", false, 0, false, func(o Options) (tabler, error) { return RunFig8(o) }},
	{"fig9", false, 0, false, func(o Options) (tabler, error) { return RunFig9(o) }},
	{"endtoend", false, 0, false, func(o Options) (tabler, error) { return RunEndToEnd(o) }},
	{"faults", true, 0, false, func(o Options) (tabler, error) { return RunFaults(o) }},
	{"cachesweep", false, 0, false, func(o Options) (tabler, error) { return RunCachesweep(o) }},
	// E16 at the smallest scale whose MREAD trains are long enough to
	// coalesce, so the batched rows really batch.
	{"serve", false, 1.0 / 2048, false, func(o Options) (tabler, error) {
		r, err := RunServe(o)
		if err != nil {
			return nil, err
		}
		// E16's acceptance property: batched submission cuts the
		// per-command host submit overhead at every depth >= 8.
		for _, row := range r.Rows {
			if row.Batch >= 8 && row.Reduction <= 1 {
				return nil, fmt.Errorf("serve %s (%d,%d): submit overhead %.0f ps/cmd did not drop below command-at-a-time %.0f ps/cmd",
					row.App, row.Batch, row.Window, row.OverheadPS, row.BaseOverheadPS)
			}
		}
		return r, nil
	}},
	{"array", false, 0, false, func(o Options) (tabler, error) {
		return RunArray(o, ArraySweep{Tenants: 64, Requests: 48, Objects: 8})
	}},
	{"fig3", false, 0, false, func(o Options) (tabler, error) { return RunFig3(o) }},
	{"ablation", false, 0, true, func(o Options) (tabler, error) {
		r, err := RunAblation(o)
		return ablationTables{r}, err
	}},
	{"fig8-hi", true, 1.0 / 1024, false, func(o Options) (tabler, error) { return RunFig8(o) }},
}

// observedRun executes one experiment with a tracer and registry wired in
// and returns the rendered table, the metrics JSON, and the trace events.
func observedRun(t *testing.T, run func(Options) (tabler, error), o Options) (string, []byte, []trace.Event) {
	t.Helper()
	o.Trace = trace.New(0)
	o.Metrics = stats.NewRegistry()
	r, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := o.Metrics.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return r.Table().String(), js.Bytes(), o.Trace.Events()
}

// TestParallelMatchesSequential is the contract the -parallel flag
// advertises: for every experiment and seed, a run fanned across 8
// workers renders the same table, emits the same metrics JSON byte for
// byte, and collects the same trace events (span IDs included) as the
// sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	seeds := []int64{20160618, 7, 424242}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tc := range parallelCases {
		for k, seed := range seeds {
			if tc.oneSeed && k > 0 {
				break
			}
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				if tc.heavy && testing.Short() {
					t.Skip("fault campaign is the suite's heaviest experiment")
				}
				o := testOptions()
				// Byte-identity is scale-independent; the smallest inputs
				// keep the 3-experiment × 3-seed × 2-run matrix affordable
				// under -race.
				o.Scale = 1.0 / 8192
				if tc.scale != 0 {
					o.Scale = tc.scale
				}
				o.Seed = seed

				o.Parallel = 1
				seqTable, seqJSON, seqEvents := observedRun(t, tc.run, o)
				o.Parallel = 8
				parTable, parJSON, parEvents := observedRun(t, tc.run, o)

				if seqTable != parTable {
					t.Errorf("table diverged:\nsequential:\n%s\nparallel:\n%s", seqTable, parTable)
				}
				if !bytes.Equal(seqJSON, parJSON) {
					t.Errorf("metrics JSON diverged:\nsequential:\n%s\nparallel:\n%s", seqJSON, parJSON)
				}
				if !reflect.DeepEqual(seqEvents, parEvents) {
					t.Errorf("trace diverged: %d sequential events vs %d parallel",
						len(seqEvents), len(parEvents))
				}
			})
		}
	}
}

// telemetryArtifacts is everything one telemetry-enabled run produces
// that the byte-identity contract covers.
type telemetryArtifacts struct {
	table   string
	metrics []byte // WriteJSON, including the SLO summary
	series  []byte // WriteSeriesJSON
	csv     []byte // WriteSeriesCSV
	om      []byte // WriteSeriesOpenMetrics
	events  []trace.Event
	tracer  *trace.Tracer
}

// observedTelemetryRun executes one experiment with windowed telemetry,
// SLO tracking, and tail-sampled tracing all enabled, and captures every
// artifact.
func observedTelemetryRun(t *testing.T, run func(Options) (tabler, error), o Options) telemetryArtifacts {
	t.Helper()
	o.Trace = trace.New(0)
	o.Trace.SetSamplePolicy(trace.SamplePolicy{
		Head:       32,
		Latency:    50 * units.Microsecond,
		MaxPending: 512,
	})
	o.Metrics = stats.NewRegistry()
	r, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	a := telemetryArtifacts{table: r.Table().String(), events: o.Trace.Events(), tracer: o.Trace}
	var buf bytes.Buffer
	if err := o.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	a.metrics = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := o.Metrics.WriteSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	a.series = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := o.Metrics.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	a.csv = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := o.Metrics.WriteSeriesOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	a.om = append([]byte(nil), buf.Bytes()...)
	return a
}

// diffTelemetry compares two runs' artifacts byte for byte.
func diffTelemetry(t *testing.T, label string, a, b telemetryArtifacts) {
	t.Helper()
	if a.table != b.table {
		t.Errorf("%s: table diverged:\n%s\nvs:\n%s", label, a.table, b.table)
	}
	for _, art := range []struct {
		name string
		x, y []byte
	}{
		{"metrics JSON", a.metrics, b.metrics},
		{"timeseries JSON", a.series, b.series},
		{"timeseries CSV", a.csv, b.csv},
		{"OpenMetrics", a.om, b.om},
	} {
		if !bytes.Equal(art.x, art.y) {
			t.Errorf("%s: %s diverged (%d vs %d bytes)", label, art.name, len(art.x), len(art.y))
		}
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Errorf("%s: sampled trace diverged: %d vs %d events", label, len(a.events), len(b.events))
	}
}

// TestParallelTelemetryMatchesSequential extends the byte-identity
// contract to the windowed-telemetry artifacts: with time series, SLO
// tracking, and tail-sampled tracing all on, a parallel run must emit
// the same timeseries JSON/CSV/OpenMetrics, the same SLO summary, and
// the same sampled trace (span IDs included) as the sequential run.
func TestParallelTelemetryMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		run  func(Options) (tabler, error)
	}{
		{"fig8", func(o Options) (tabler, error) { return RunFig8(o) }},
		{"multiprog", func(o Options) (tabler, error) { return RunMultiprog(o, 0.5) }},
	}
	seeds := []int64{20160618, 99}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tc := range cases {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				o := testOptions()
				o.Scale = 1.0 / 8192
				o.Seed = seed
				o.MetricsWindow = 100 * units.Microsecond
				o.SLOs = []stats.SLOConfig{
					{Name: "*", Metric: "nvme.MREAD.latency_ps",
						TargetPS: int64(40 * units.Microsecond), Budget: 0.05},
					{Name: "pagerank", Metric: "phase." + string(stats.PhaseDeserialize) + "_ps",
						TargetPS: int64(2 * units.Millisecond), Budget: 0.5},
				}

				o.Parallel = 1
				seq := observedTelemetryRun(t, tc.run, o)
				o.Parallel = 8
				par := observedTelemetryRun(t, tc.run, o)
				diffTelemetry(t, "parallel=8 vs sequential", seq, par)

				// The artifacts must actually carry the telemetry: windows
				// in the series, the SLO summary in the metrics JSON, and a
				// sampler that made at least one discard decision.
				if !bytes.Contains(seq.series, []byte(`"windows"`)) {
					t.Errorf("series JSON has no windows:\n%s", seq.series)
				}
				if !bytes.Contains(seq.metrics, []byte(`"slos"`)) {
					t.Errorf("metrics JSON has no SLO summary")
				}
				if seq.tracer.Recorded() == 0 || seq.tracer.SampledOut() == 0 {
					t.Errorf("sampler idle: recorded=%d sampledOut=%d",
						seq.tracer.Recorded(), seq.tracer.SampledOut())
				}
				if len(seq.events) == 0 {
					t.Errorf("sampled trace is empty")
				}
			})
		}
	}
}

// TestSameRunsSameTelemetry: fig8, fig9, fig10 and traffic read
// different columns off the same baseline and Morpheus runs of every
// application, so they must emit the same metrics, series and trace byte
// for byte — one sweep, one fold, whatever the rows are.
func TestSameRunsSameTelemetry(t *testing.T) {
	o := testOptions()
	o.Scale = 1.0 / 8192
	o.MetricsWindow = 100 * units.Microsecond
	runs := []struct {
		name string
		run  func(Options) (tabler, error)
	}{
		{"fig8", func(o Options) (tabler, error) { return RunFig8(o) }},
		{"fig9", func(o Options) (tabler, error) { return RunFig9(o) }},
		{"fig10", func(o Options) (tabler, error) { return RunFig10(o) }},
		{"traffic", func(o Options) (tabler, error) { return RunTraffic(o) }},
	}
	want := observedTelemetryRun(t, runs[0].run, o)
	if len(want.events) == 0 || !bytes.Contains(want.series, []byte(`"windows"`)) {
		t.Fatalf("fig8 emitted no telemetry: %d events, %d series bytes", len(want.events), len(want.series))
	}
	for _, r := range runs[1:] {
		got := observedTelemetryRun(t, r.run, o)
		got.table = want.table // the rows differ by design
		diffTelemetry(t, r.name+" vs fig8", want, got)
	}
}

// TestRunPointsOrderAndFold: results come back in point order regardless
// of completion order, and the per-point sinks fold in point order.
func TestRunPointsOrderAndFold(t *testing.T) {
	o := testOptions()
	o.Parallel = 4
	o.Metrics = stats.NewRegistry()
	o.Trace = trace.New(0)
	var mu sync.Mutex
	var foldOrder []int64
	// The gauge's `last` is the most recent fold's value, so sampling the
	// point index and reading it back after every merge exposes the order.
	vals, err := runPoints(o, 16, func(i int, po Options) (int, error) {
		po.Metrics.Counters().Add("points", 1)
		po.Metrics.Gauge("order").Sample(int64(i), float64(i))
		po.Trace.RecordSpan("t", "p", "", po.Trace.NextSpan(), 0, 0, 1)
		mu.Lock()
		foldOrder = append(foldOrder, int64(i))
		mu.Unlock()
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i*i)
		}
	}
	if got := o.Metrics.Counters().Get("points"); got != 16 {
		t.Fatalf("folded %d points, want 16", got)
	}
	if last := o.Metrics.Gauge("order").Last(); last != 15 {
		t.Fatalf("gauge last = %v: points folded out of order", last)
	}
	// Adopted spans are renumbered to the sequential 1..16.
	evs := o.Trace.Events()
	if len(evs) != 16 {
		t.Fatalf("adopted %d events, want 16", len(evs))
	}
	seen := map[trace.SpanID]bool{}
	for _, e := range evs {
		if e.Span < 1 || e.Span > 16 || seen[e.Span] {
			t.Fatalf("span IDs not the sequential 1..16: %+v", evs)
		}
		seen[e.Span] = true
	}
}

// TestRunPointsLowestError: when several points fail, the error reported
// is the one a one-at-a-time run would have hit first.
func TestRunPointsLowestError(t *testing.T) {
	o := testOptions()
	o.Parallel = 8
	boom := func(i int) error { return fmt.Errorf("point %d failed", i) }
	_, err := runPoints(o, 12, func(i int, po Options) (int, error) {
		if i >= 3 {
			return 0, boom(i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "point 3 failed" {
		t.Fatalf("err = %v, want the lowest-index failure (point 3)", err)
	}
}

// TestRunPointsSequentialIsolation: at one worker the pool still derives
// isolated per-point sinks (identical float grouping is what makes
// worker counts byte-equivalent) and folds them back; with no
// sinks configured, the caller's Options pass through untouched.
func TestRunPointsSequentialIsolation(t *testing.T) {
	o := testOptions()
	o.Parallel = 1
	o.Metrics = stats.NewRegistry()
	shared := o.Metrics
	var sawShared int32
	_, err := runPoints(o, 3, func(i int, po Options) (int, error) {
		if po.Metrics == shared {
			atomic.AddInt32(&sawShared, 1)
		}
		po.Metrics.Counters().Add("n", 1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawShared != 0 {
		t.Fatalf("sequential path leaked the shared registry into %d/3 points", sawShared)
	}
	if got := shared.Counters().Get("n"); got != 3 {
		t.Fatalf("sequential fold lost points: n=%d, want 3", got)
	}

	bare := testOptions()
	bare.Parallel = 1
	_, err = runPoints(bare, 2, func(i int, po Options) (int, error) {
		if po.Metrics != nil || po.Trace != nil {
			t.Errorf("point %d grew sinks the caller never configured", i)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunPointsEmpty: a zero-point sweep is a no-op, not a hang.
func TestRunPointsEmpty(t *testing.T) {
	vals, err := runPoints(testOptions(), 0, func(i int, po Options) (int, error) {
		return 0, errors.New("must not run")
	})
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty sweep: vals=%v err=%v", vals, err)
	}
}
