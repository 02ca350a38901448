package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// AblationResult bundles the design-choice studies DESIGN.md §4 lists.
type AblationResult struct {
	SampledVsExact *Table
	SoftFloat      *Table
	MDTS           *Table
	CoreCount      *Table
	BatchDepth     *Table
	Wear           *Table
}

// RunAblation runs all ablations.
func RunAblation(o Options) (*AblationResult, error) {
	res := &AblationResult{}
	var err error
	if res.SampledVsExact, err = ablSampled(o); err != nil {
		return nil, err
	}
	if res.SoftFloat, err = ablSoftFloat(o); err != nil {
		return nil, err
	}
	if res.MDTS, err = ablMDTS(o); err != nil {
		return nil, err
	}
	if res.CoreCount, err = ablCores(o); err != nil {
		return nil, err
	}
	if res.BatchDepth, err = ablBatch(o); err != nil {
		return nil, err
	}
	wear, err := RunWearSweep(o)
	if err != nil {
		return nil, err
	}
	res.Wear = wear.Table()
	return res, nil
}

// Tables returns all ablation tables.
func (r *AblationResult) Tables() []*Table {
	return []*Table{r.SampledVsExact, r.SoftFloat, r.MDTS, r.CoreCount, r.BatchDepth, r.Wear}
}

// ablSampled validates the sampled-execution design: timing extrapolated
// from the sample window must agree with exact full interpretation.
func ablSampled(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation — sampled vs exact StorageApp timing",
		Header: []string{"app", "exact deser", "sampled deser", "relative error", "exact cpb", "sampled cpb"},
	}
	small := o
	small.Scale = o.scale() / 8 // exact interpretation is slow; keep inputs modest
	for _, name := range []string{"pagerank", "spmv"} {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		shards := app.Generate(small.scale(), small.Seed)
		exactOpts := small
		exactOpts.Mutate = chain(small.Mutate, func(c *core.SystemConfig) { c.SSD.SampledExecution = false })
		exact, _, err := runApp(app, apps.ModeMorpheus, exactOpts, shards)
		if err != nil {
			return nil, fmt.Errorf("ablation sampled (%s exact): %w", name, err)
		}
		sampled, _, err := runApp(app, apps.ModeMorpheus, small, shards)
		if err != nil {
			return nil, fmt.Errorf("ablation sampled (%s sampled): %w", name, err)
		}
		if err := apps.VerifyObjects(exact, sampled); err != nil {
			return nil, fmt.Errorf("ablation sampled (%s): data planes differ: %w", name, err)
		}
		relErr := (float64(sampled.Deser) - float64(exact.Deser)) / float64(exact.Deser)
		t.AddRow(name, exact.Deser.String(), sampled.Deser.String(),
			fmt.Sprintf("%+.1f%%", 100*relErr), f2(exact.CyclesPerByte), f2(sampled.CyclesPerByte))
	}
	t.Note("data planes are verified bit-identical between the two modes")
	return t, nil
}

// ablSoftFloat sweeps the software-float penalty: with a hardware FPU
// (penalty ~1 cycle) SpMV would enjoy the same gains as the integer apps —
// the paper's "we expect that the next generation of SSD processors will
// provide native support for floating point operations".
func ablSoftFloat(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation — SpMV deserialization speedup vs floating-point cost",
		Header: []string{"float scan cycles/byte", "softfloat op cycles", "spmv speedup"},
	}
	app, err := apps.ByName("spmv")
	if err != nil {
		return nil, err
	}
	shards := app.Generate(o.scale(), o.Seed)
	base, _, err := runApp(app, apps.ModeBaseline, o, shards)
	if err != nil {
		return nil, err
	}
	for _, cfg := range []struct {
		scanCPB float64
		sfCost  float64
	}{{1.2, 4}, {3, 15}, {9, 30}, {18, 60}} {
		cfg := cfg
		opts := o
		opts.Mutate = chain(o.Mutate, func(c *core.SystemConfig) {
			c.SSD.Cost.ScanFloatPerByte = cfg.scanCPB
			c.SSD.Cost.SoftFloat = cfg.sfCost
			c.SSD.Cost.SoftFloatDiv = 2 * cfg.sfCost
		})
		morph, _, err := runApp(app, apps.ModeMorpheus, opts, shards)
		if err != nil {
			return nil, fmt.Errorf("ablation softfloat: %w", err)
		}
		t.AddRow(fmt.Sprintf("%.1f", cfg.scanCPB), fmt.Sprintf("%.0f", cfg.sfCost),
			f2(float64(base.Deser)/float64(morph.Deser))+"x")
	}
	t.Note("an FPU-equipped controller (first row) would lift SpMV to the integer apps' gains")
	return t, nil
}

// ablMDTS sweeps the NVMe maximum data transfer size (the MREAD chunk).
func ablMDTS(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation — MREAD chunk size (NVMe MDTS)",
		Header: []string{"MDTS", "morpheus deser", "NVMe commands", "deser ctx switches"},
	}
	app, err := apps.ByName("pagerank")
	if err != nil {
		return nil, err
	}
	shards := app.Generate(o.scale(), o.Seed)
	for _, mdts := range []units.Bytes{32 * units.KiB, 64 * units.KiB, 128 * units.KiB, 256 * units.KiB, 512 * units.KiB} {
		mdts := mdts
		opts := o
		opts.Mutate = chain(o.Mutate, func(c *core.SystemConfig) { c.SSD.MDTS = mdts })
		rep, _, err := runApp(app, apps.ModeMorpheus, opts, shards)
		if err != nil {
			return nil, fmt.Errorf("ablation mdts: %w", err)
		}
		t.AddRow(mdts.String(), rep.Deser.String(), fmt.Sprintf("%d", rep.Commands),
			fmt.Sprintf("%d", rep.DeserCtxSwitches))
	}
	return t, nil
}

// ablCores sweeps the embedded-core count under a 4-thread application
// (instance-ID pinning spreads the threads across cores).
func ablCores(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation — embedded core count (4 StorageApp instances)",
		Header: []string{"cores", "morpheus deser", "speedup vs 1 core"},
	}
	app, err := apps.ByName("pagerank")
	if err != nil {
		return nil, err
	}
	shards := app.Generate(o.scale(), o.Seed)
	var oneCore units.Duration
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		opts := o
		opts.Mutate = chain(o.Mutate, func(c *core.SystemConfig) { c.SSD.EmbeddedCores = n })
		rep, _, err := runApp(app, apps.ModeMorpheus, opts, shards)
		if err != nil {
			return nil, fmt.Errorf("ablation cores: %w", err)
		}
		if n == 1 {
			oneCore = rep.Deser
		}
		t.AddRow(fmt.Sprintf("%d", n), rep.Deser.String(),
			f2(float64(oneCore)/float64(rep.Deser))+"x")
	}
	return t, nil
}

// ablBatch sweeps the runtime's MREAD batching depth, the mechanism behind
// Figure 10's context-switch elimination.
func ablBatch(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation — MREAD batch depth vs context switches",
		Header: []string{"batch depth", "morpheus deser", "deser ctx switches", "syscalls"},
	}
	app, err := apps.ByName("pagerank")
	if err != nil {
		return nil, err
	}
	shards := app.Generate(o.scale(), o.Seed)
	for _, depth := range []int{1, 8, 32, 128} {
		depth := depth
		opts := o
		opts.Mutate = chain(o.Mutate, func(c *core.SystemConfig) { c.BatchDepth = depth })
		rep, sys, err := runApp(app, apps.ModeMorpheus, opts, shards)
		if err != nil {
			return nil, fmt.Errorf("ablation batch: %w", err)
		}
		t.AddRow(fmt.Sprintf("%d", depth), rep.Deser.String(),
			fmt.Sprintf("%d", rep.DeserCtxSwitches),
			fmt.Sprintf("%d", sys.Counters.Get(stats.Syscalls)))
	}
	return t, nil
}

// chain composes two optional config mutators.
func chain(a, b func(*core.SystemConfig)) func(*core.SystemConfig) {
	return func(c *core.SystemConfig) {
		if a != nil {
			a(c)
		}
		if b != nil {
			b(c)
		}
	}
}
