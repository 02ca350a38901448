// The telemetry-overhead smoke: times one experiment with observability
// off, with windowed time series + SLO tracking on, and with
// tail-sampled tracing stacked on top, and publishes the overhead
// ratios — as benchmark metrics and, when MORPHEUS_BENCH_OBS_OUT names
// a file, as a BENCH_obs.json record for CI to archive:
//
//	MORPHEUS_BENCH_OBS_OUT=BENCH_obs.json \
//	  go test -bench TelemetryOverhead -run '^$' .
//
// The simulated results are byte-identical with telemetry on or off (a
// passive observer); what this measures is host wall-clock. The ratios
// recorded are whatever the machine delivered — the structural checks
// (artifacts emitted, sampler bounded) are what must always hold.
package morpheus

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"morpheus/internal/exp"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// obsResult is the BENCH_obs.json schema (documented in EXPERIMENTS.md):
// one measurement of the telemetry stack's host-side cost on fig8.
type obsResult struct {
	Experiment string  `json:"experiment"`  // which sweep was timed
	Scale      float64 `json:"scale"`       // input scale (fraction of Table I)
	Seed       int64   `json:"seed"`        // workload generator seed
	WindowPS   int64   `json:"window_ps"`   // time-series window width
	BaseNS     int64   `json:"base_ns"`     // wall clock, telemetry off
	WindowedNS int64   `json:"windowed_ns"` // + time series and SLO tracking
	SampledNS  int64   `json:"sampled_ns"`  // + tail-sampled tracing
	// WindowedX and SampledX are wall-clock ratios against base (1.0 =
	// free); TraceKept/TraceRecorded show the sampler doing its job.
	WindowedX     float64 `json:"windowed_x"`
	SampledX      float64 `json:"sampled_x"`
	TraceRecorded int64   `json:"trace_recorded"`
	TraceKept     int64   `json:"trace_kept"`
}

// timedObsFig8 runs Figure 8 under o and returns the sweep's wall clock.
func timedObsFig8(b *testing.B, o exp.Options) time.Duration {
	b.Helper()
	start := time.Now()
	if _, err := exp.RunFig8(o); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkTelemetryOverhead measures what the windowed-telemetry stack
// costs on top of a bare fig8 sweep, and that stacking the tail sampler
// on keeps the trace bounded.
func BenchmarkTelemetryOverhead(b *testing.B) {
	const windowPS = int64(100 * units.Microsecond)
	for i := 0; i < b.N; i++ {
		base := exp.DefaultOptions()
		base.Parallel = 1
		baseDur := timedObsFig8(b, base)

		windowed := exp.DefaultOptions()
		windowed.Parallel = 1
		windowed.Metrics = stats.NewRegistry()
		windowed.MetricsWindow = units.Duration(windowPS)
		windowed.SLOs = []stats.SLOConfig{{
			Name: "*", Metric: "nvme.MREAD.latency_ps",
			TargetPS: int64(10 * units.Millisecond), Budget: 0.05,
		}}
		windowedDur := timedObsFig8(b, windowed)

		sampled := windowed
		sampled.Metrics = stats.NewRegistry()
		sampled.Trace = trace.New(0)
		sampled.Trace.SetSamplePolicy(trace.SamplePolicy{
			Head:    256,
			Latency: 50 * units.Millisecond,
		})
		sampledDur := timedObsFig8(b, sampled)

		if i > 0 {
			continue
		}
		// Structural checks, independent of timing noise: the windowed
		// artifact exists and the sampler kept a strict subset.
		var buf bytes.Buffer
		if err := windowed.Metrics.WriteSeriesJSON(&buf); err != nil {
			b.Fatal(err)
		}
		recorded, kept := sampled.Trace.Recorded(), sampled.Trace.Kept()
		if recorded == 0 || kept == 0 || kept >= recorded {
			b.Fatalf("sampler did not sample: recorded=%d kept=%d", recorded, kept)
		}
		res := obsResult{
			Experiment: "fig8",
			Scale:      base.Scale,
			Seed:       base.Seed,
			WindowPS:   windowPS,
			BaseNS:     baseDur.Nanoseconds(),
			WindowedNS: windowedDur.Nanoseconds(),
			SampledNS:  sampledDur.Nanoseconds(),
			WindowedX:  float64(windowedDur) / float64(baseDur),
			SampledX:   float64(sampledDur) / float64(baseDur),

			TraceRecorded: recorded,
			TraceKept:     kept,
		}
		b.ReportMetric(res.WindowedX, "windowed-x")
		b.ReportMetric(res.SampledX, "sampled-x")
		if path := os.Getenv("MORPHEUS_BENCH_OBS_OUT"); path != "" {
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
