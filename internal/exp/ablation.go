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

// RunAblation runs all ablations, one runPoints point per sub-table.
func RunAblation(o Options) (*AblationResult, error) {
	studies := []ablStudy{ablSampled(), ablSoftFloat(), ablMDTS(), ablCores(), ablBatch()}
	t, err := runPoints(o, len(studies)+1, func(i int, po Options) (*Table, error) {
		if i == len(studies) {
			wear, err := RunWearSweep(po)
			if err != nil {
				return nil, err
			}
			return wear.Table(), nil
		}
		return studies[i].run(po)
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{t[0], t[1], t[2], t[3], t[4], t[5]}, nil
}

// Tables returns all ablation tables.
func (r *AblationResult) Tables() []*Table {
	return []*Table{r.SampledVsExact, r.SoftFloat, r.MDTS, r.CoreCount, r.BatchDepth, r.Wear}
}

// ablStudy is one ablation sub-table as data: the applications it runs,
// the variants each runs over its one dataset (runVariants), and the
// rows those runs become.
type ablStudy struct {
	name, title string
	header      []string
	apps        []string
	// shrink, when positive, divides the experiment's input scale.
	shrink   float64
	variants []variant
	rows     func(app string, runs []appRun) [][]string
	notes    []string
}

// run generates each application's dataset once and renders the table.
func (s ablStudy) run(po Options) (*Table, error) {
	t := &Table{Title: s.title, Header: s.header, Notes: s.notes}
	if s.shrink > 0 {
		po.Scale = po.scale() / s.shrink
	}
	for _, name := range s.apps {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		runs, err := runVariants(po, "ablation "+s.name, app, app.Generate(po.scale(), po.Seed), s.variants)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, s.rows(name, runs)...)
	}
	return t, nil
}

// morphSweep returns one Morpheus-mode variant per value, each applying
// set(value) to the system config.
func morphSweep[V any](vals []V, set func(*core.SystemConfig, V)) []variant {
	vs := make([]variant, len(vals))
	for i, v := range vals {
		vs[i] = variant{mode: apps.ModeMorpheus, mutate: func(c *core.SystemConfig) { set(c, v) }}
	}
	return vs
}

// ablSampled validates the sampled-execution design: timing extrapolated
// from the sample window must agree with exact full interpretation.
func ablSampled() ablStudy {
	return ablStudy{
		name:   "sampled",
		title:  "Ablation — sampled vs exact StorageApp timing",
		header: []string{"app", "exact deser", "sampled deser", "relative error", "exact cpb", "sampled cpb"},
		apps:   []string{"pagerank", "spmv"},
		shrink: 8, // exact interpretation is slow; keep inputs modest
		variants: []variant{
			{mode: apps.ModeMorpheus, mutate: func(c *core.SystemConfig) { c.SSD.SampledExecution = false }},
			{mode: apps.ModeMorpheus},
		},
		rows: func(app string, runs []appRun) [][]string {
			exact, sampled := runs[0], runs[1]
			relErr := (float64(sampled.Deser) - float64(exact.Deser)) / float64(exact.Deser)
			return [][]string{{app, exact.Deser.String(), sampled.Deser.String(),
				fmt.Sprintf("%+.1f%%", 100*relErr), f2(exact.CyclesPerByte), f2(sampled.CyclesPerByte)}}
		},
		notes: []string{"data planes are verified bit-identical between the two modes"},
	}
}

// ablSoftFloat sweeps the software-float penalty: with a hardware FPU
// (penalty ~1 cycle) SpMV would enjoy the same gains as the integer apps —
// the paper's "we expect that the next generation of SSD processors will
// provide native support for floating point operations".
func ablSoftFloat() ablStudy {
	type cost struct{ scanCPB, sfCost float64 }
	costs := []cost{{1.2, 4}, {3, 15}, {9, 30}, {18, 60}}
	return ablStudy{
		name:   "softfloat",
		title:  "Ablation — SpMV deserialization speedup vs floating-point cost",
		header: []string{"float scan cycles/byte", "softfloat op cycles", "spmv speedup"},
		apps:   []string{"spmv"},
		variants: append([]variant{{mode: apps.ModeBaseline}}, morphSweep(costs, func(c *core.SystemConfig, v cost) {
			c.SSD.Cost.ScanFloatPerByte = v.scanCPB
			c.SSD.Cost.SoftFloat = v.sfCost
			c.SSD.Cost.SoftFloatDiv = 2 * v.sfCost
		})...),
		rows: func(_ string, runs []appRun) (rows [][]string) {
			for i, v := range costs {
				rows = append(rows, []string{fmt.Sprintf("%.1f", v.scanCPB), fmt.Sprintf("%.0f", v.sfCost),
					f2(float64(runs[0].Deser)/float64(runs[i+1].Deser)) + "x"})
			}
			return rows
		},
		notes: []string{"an FPU-equipped controller (first row) would lift SpMV to the integer apps' gains"},
	}
}

// ablMDTS sweeps the NVMe maximum data transfer size (the MREAD chunk).
func ablMDTS() ablStudy {
	sizes := []units.Bytes{32 * units.KiB, 64 * units.KiB, 128 * units.KiB, 256 * units.KiB, 512 * units.KiB}
	return ablStudy{
		name:     "mdts",
		title:    "Ablation — MREAD chunk size (NVMe MDTS)",
		header:   []string{"MDTS", "morpheus deser", "NVMe commands", "deser ctx switches"},
		apps:     []string{"pagerank"},
		variants: morphSweep(sizes, func(c *core.SystemConfig, v units.Bytes) { c.SSD.MDTS = v }),
		rows: func(_ string, runs []appRun) (rows [][]string) {
			for i, r := range runs {
				rows = append(rows, []string{sizes[i].String(), r.Deser.String(),
					fmt.Sprintf("%d", r.Commands), fmt.Sprintf("%d", r.DeserCtxSwitches)})
			}
			return rows
		},
	}
}

// ablCores sweeps the embedded-core count under a 4-thread application
// (instance-ID pinning spreads the threads across cores).
func ablCores() ablStudy {
	counts := []int{1, 2, 4, 8}
	return ablStudy{
		name:     "cores",
		title:    "Ablation — embedded core count (4 StorageApp instances)",
		header:   []string{"cores", "morpheus deser", "speedup vs 1 core"},
		apps:     []string{"pagerank"},
		variants: morphSweep(counts, func(c *core.SystemConfig, n int) { c.SSD.EmbeddedCores = n }),
		rows: func(_ string, runs []appRun) (rows [][]string) {
			for i, r := range runs {
				rows = append(rows, []string{fmt.Sprintf("%d", counts[i]), r.Deser.String(),
					f2(float64(runs[0].Deser)/float64(r.Deser)) + "x"})
			}
			return rows
		},
	}
}

// ablBatch sweeps the runtime's MREAD batching depth, the mechanism behind
// Figure 10's context-switch elimination.
func ablBatch() ablStudy {
	depths := []int{1, 8, 32, 128}
	return ablStudy{
		name:     "batch",
		title:    "Ablation — MREAD batch depth vs context switches",
		header:   []string{"batch depth", "morpheus deser", "deser ctx switches", "syscalls"},
		apps:     []string{"pagerank"},
		variants: morphSweep(depths, func(c *core.SystemConfig, d int) { c.BatchDepth = d }),
		rows: func(_ string, runs []appRun) (rows [][]string) {
			for i, r := range runs {
				rows = append(rows, []string{fmt.Sprintf("%d", depths[i]), r.Deser.String(),
					fmt.Sprintf("%d", r.DeserCtxSwitches), fmt.Sprintf("%d", r.Counters.Get(stats.Syscalls))})
			}
			return rows
		},
	}
}
