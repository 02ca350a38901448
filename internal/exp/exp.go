// Package exp is the experiment harness: one runner per table/figure of
// the paper's evaluation (plus the ablations DESIGN.md calls out), each
// regenerating the same rows/series the paper reports. The cmd/morpheusbench
// binary is a thin wrapper over this package.
package exp

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/flash"
	"morpheus/internal/sim"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
	"morpheus/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale shrinks the Table I input sizes (1.0 = paper size). The
	// simulation is analytic in input size, so shapes are scale-stable;
	// the default keeps bench runtimes pleasant.
	Scale float64
	// Seed drives the deterministic workload generators.
	Seed int64
	// CPUFreq overrides the host DVFS point (0 = default 2.5 GHz).
	CPUFreq units.Frequency
	// Mutate, if set, adjusts the system configuration before building.
	Mutate func(*core.SystemConfig)
	// Faults, when nonzero, installs a deterministic media fault model on
	// the flash array after staging (so setup writes are unaffected but
	// measured reads see the faults).
	Faults flash.FaultModel
	// Trace, when set, is attached to every system the experiment builds
	// (after staging, so setup I/O does not pollute it) and collects causal
	// spans across all runs.
	Trace *trace.Tracer
	// Metrics, when set, aggregates every run's counters, latency
	// histograms, and gauges across the experiment.
	Metrics *stats.Registry
	// MetricsWindow, when positive, enables windowed time-series
	// collection on every system the experiment builds: counters,
	// latency quantiles, and gauges are bucketed into fixed windows of
	// this width on the virtual clock. The aggregate Metrics registry
	// adopts the same window through the fold, so the artifact is
	// byte-identical at any Parallel setting. Zero keeps the default
	// whole-run aggregation (and the default artifact schema).
	MetricsWindow units.Duration
	// SLOs declares latency objectives tracked per window against the
	// named metric. A config's Name binds it to one tenant (application
	// name, as in the multiprogrammed experiment); "" or "*" applies to
	// every run under the name "all".
	SLOs []stats.SLOConfig
	// Parallel is the worker count for independent sweep points: 0 uses
	// one worker per CPU, 1 runs the points one at a time. Output (tables,
	// Metrics, Trace) is byte-identical at every setting; see parallel.go.
	Parallel int
	// ShardParallel, when positive, caps how many of an array point's
	// shards simulate concurrently on the conservative-window executor
	// (array.RunTrafficParallel); 0 lets a point take as many as the
	// worker budget spares. Points and shard goroutines draw from one
	// shared worker budget sized max(workers, ShardParallel), so the two
	// layers of parallelism never oversubscribe the machine together.
	// Output is byte-identical at every setting; see
	// internal/array/parallel.go for the determinism argument.
	ShardParallel int
	// budget is the experiment-wide worker semaphore runPoints lazily
	// creates; tests inject one to pin the cap.
	budget *sim.WorkerBudget
}

// observe wires the experiment-wide tracer into a freshly staged system.
// Call it after staging/ResetTimers so the trace starts at the
// measurement boundary.
func (o Options) observe(sys *core.System) {
	if o.Trace != nil {
		sys.AttachTracer(o.Trace)
	}
}

// collect folds one finished run's metrics into the experiment aggregate.
func (o Options) collect(sys *core.System) {
	if o.Metrics != nil {
		o.Metrics.Merge(sys.Metrics)
	}
}

// DefaultOptions is the bench-friendly configuration.
func DefaultOptions() Options {
	return Options{Scale: 1.0 / 256, Seed: 20160618} // ISCA'16 conference date
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0 / 256
	}
	return o.Scale
}

// buildSystem constructs a fresh testbed for one run.
func buildSystem(o Options, withGPU bool) (*core.System, error) {
	cfg := core.DefaultSystemConfig()
	cfg.WithGPU = withGPU
	if o.Mutate != nil {
		o.Mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if o.CPUFreq > 0 {
		sys.Host.SetFrequency(o.CPUFreq)
	}
	if o.MetricsWindow > 0 {
		sys.Metrics.EnableSeries(int64(o.MetricsWindow))
	}
	for _, c := range o.SLOs {
		if c.Name == "" || c.Name == "*" {
			c.Name = "all"
		}
		sys.Metrics.AddSLO(c)
	}
	return sys, nil
}

// TenantID returns the globally unique tenant name for an application
// instance running on one shard of an array ("grep@s2"). A bare
// application name remains the valid tenant of a single-system run.
func TenantID(app string, shard int) string { return fmt.Sprintf("%s@s%d", app, shard) }

// tenantBase strips the shard qualifier from a tenant name ("grep@s2" →
// "grep"); unqualified names pass through.
func tenantBase(tenant string) string {
	if i := strings.IndexByte(tenant, '@'); i >= 0 {
		return tenant[:i]
	}
	return tenant
}

// bindSLOs narrows the option set to the SLO configs that apply to one
// named tenant: configs naming that tenant plus the wildcards ("", "*").
// Experiments that run one application per system call this so a
// tenant-scoped objective only counts its own tenant's commands.
//
// Tenants may be shard-qualified (TenantID): a config naming the bare
// application binds to each shard-qualified instance separately, and its
// Name is rewritten to the qualified tenant. The rewrite is what keeps
// SLO keys unique across shards — without it, the same app running on
// two shards would fold both instances' counts under one "app|metric"
// key in the merged registry, colliding and double-counting the burn.
func bindSLOs(o Options, tenant string) Options {
	if len(o.SLOs) == 0 {
		return o
	}
	base := tenantBase(tenant)
	var kept []stats.SLOConfig
	for _, c := range o.SLOs {
		switch c.Name {
		case "", "*", tenant:
			kept = append(kept, c)
		case base:
			c.Name = tenant
			kept = append(kept, c)
		}
	}
	o.SLOs = kept
	return o
}

// runApp stages the point's shards and executes one variant of one
// application on a fresh system, returning the report and the system
// (for counter inspection). A point that runs the app in several
// variants generates its dataset once and passes the same shards to each
// run; the shards are dropped with the point, never memoised across
// points.
func runApp(app *apps.App, v variant, o Options, shards workload.Shards) (*apps.Report, *core.System, error) {
	o = bindSLOs(o, app.Name)
	if v.mutate != nil {
		o.Mutate = chain(o.Mutate, v.mutate)
	}
	sys, err := buildSystem(o, app.UsesGPU)
	if err != nil {
		return nil, nil, err
	}
	files, err := apps.StageShards(sys, app, shards)
	if err != nil {
		return nil, nil, err
	}
	if o.Faults != (flash.FaultModel{}) {
		sys.SSD.Flash.SetFaultModel(o.Faults)
	}
	sys.ResetTimers()
	o.observe(sys)
	if v.setup != nil {
		v.setup(sys)
	}
	rep, err := apps.Run(sys, app, files, v.mode)
	if err != nil {
		return nil, nil, err
	}
	o.collect(sys)
	return rep, sys, nil
}

// variant is one run of a point's dataset: a mode, and optionally a
// config mutator chained after the point's own and a setup step applied
// to the staged system just before the application starts.
type variant struct {
	mode   apps.Mode
	mutate func(*core.SystemConfig)
	setup  func(*core.System)
}

// baseMorph is the mode pair most figures compare: the conventional
// model against Morpheus-SSD.
var baseMorph = []variant{{mode: apps.ModeBaseline}, {mode: apps.ModeMorpheus}}

// appRun is what a sweep row reads of one finished run: the report and
// the system state the figures need, copied out so the system itself is
// garbage as soon as its run ends and a point holds at most one.
type appRun struct {
	*apps.Report
	CPUFreq  units.Frequency // host DVFS point the run used
	Counters stats.Snapshot  // the system's counters after the run
}

// runVariants runs app once per variant over the same shards, each on a
// fresh system (ModeMorpheusP2P only for GPU applications, the only ones
// it applies to), checks every later run's objects against the first
// run's, and returns the runs; name prefixes every error. The last run
// is peeled out of the loop: when the caller hands over its last
// reference to shards, no reference to the dataset outlives that run's
// staging, so the dataset is garbage while the run executes (inside the
// loop it stays live and raises peak memory).
func runVariants(po Options, name string, app *apps.App, shards workload.Shards, vs []variant) ([]appRun, error) {
	var runs []appRun
	run := func(k int, shards workload.Shards) error {
		v := vs[k]
		if v.mode == apps.ModeMorpheusP2P && !app.UsesGPU {
			return nil
		}
		rep, sys, err := runApp(app, v, po, shards)
		if err != nil {
			return fmt.Errorf("%s %s %s[%d]: %w", name, app.Name, v.mode, k, err)
		}
		if len(runs) > 0 {
			if err := apps.VerifyObjects(runs[0].Report, rep); err != nil {
				return fmt.Errorf("%s %s %s[%d]: object mismatch: %w", name, app.Name, v.mode, k, err)
			}
		}
		runs = append(runs, appRun{Report: rep, CPUFreq: sys.Host.CPU.Freq, Counters: sys.Counters.Snapshot()})
		return nil
	}
	last := len(vs) - 1
	for k := range vs[:last] {
		if err := run(k, shards); err != nil {
			return nil, err
		}
	}
	if err := run(last, shards); err != nil {
		return nil, err
	}
	return runs, nil
}

// sweepApps is the paper's per-application sweep (§VII): one runPoints
// point per application, which generates the dataset once, runs it in
// each variant through runVariants, and hands the runs to row inside the
// point, so they never outlive it. vs[0] is the baseline the others are
// checked against; name prefixes every error.
func sweepApps[T any](o Options, name string, vs []variant, row func(app *apps.App, runs []appRun) T) ([]T, error) {
	all := apps.All()
	return runPoints(o, len(all), func(i int, po Options) (T, error) {
		app := all[i]
		runs, err := runVariants(po, name, app, app.Generate(po.scale(), po.Seed), vs)
		if err != nil {
			var zero T
			return zero, err
		}
		return row(app, runs), nil
	})
}

// chain composes an optional config mutator a with a mutator b run
// after it.
func chain(a, b func(*core.SystemConfig)) func(*core.SystemConfig) {
	if a == nil {
		return b
	}
	return func(c *core.SystemConfig) { a(c); b(c) }
}

// Table is a simple aligned text table used by every experiment printer.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// WriteCSV renders the table as RFC-4180-ish CSV (header row first; notes
// become trailing comment lines) for downstream plotting.
func (t *Table) WriteCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				io.WriteString(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			io.WriteString(w, c)
		}
		io.WriteString(w, "\n")
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// f2 formats a float with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
