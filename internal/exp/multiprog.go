package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/host"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// MultiprogRow is one application under CPU competition: deserialization
// time in isolation and with a co-runner, for both models.
type MultiprogRow struct {
	App            string
	BaseIsolated   units.Duration
	BaseContended  units.Duration
	MorphIsolated  units.Duration
	MorphContended units.Duration
	BaseSlowdown   float64
	MorphSlowdown  float64
}

// MultiprogResult is experiment E12: the paper's §III multiprogramming
// claim, quantified. The conventional model fights the co-runner for CPU
// cycles; the Morpheus model barely touches the host CPU during
// deserialization, so a loaded machine costs it almost nothing.
type MultiprogResult struct {
	Load             float64
	Rows             []MultiprogRow
	AvgBaseSlowdown  float64
	AvgMorphSlowdown float64
	// Counters aggregates every tenant run's counter set (merged copies,
	// not shared state), exposed read-only for cross-tenant accounting.
	Counters stats.Snapshot
}

// RunMultiprog measures deserialization under a co-runner consuming the
// given fraction of every host core (default 0.5 if load <= 0).
func RunMultiprog(o Options, load float64) (*MultiprogResult, error) {
	if load <= 0 {
		load = 0.5
	}
	res := &MultiprogResult{Load: load}
	// A subset representative of both parallel models keeps the sweep
	// affordable: a 4-thread MPI app, a CUDA app, and the float outlier.
	names := []string{"pagerank", "bfs", "nn", "spmv"}
	type point struct {
		row MultiprogRow
		// counters carries the point's per-run counters back to the
		// in-order fold, where the cross-tenant total accumulates.
		counters []stats.Snapshot
	}
	// The co-runner loads a fresh system's cores for a generous horizon:
	// several times the isolated deserialization time.
	corun := func(sys *core.System) { host.DefaultCoRunner(sys.Host, load).Occupy(sys.Host, 10*units.Second) }
	// Every run must build the isolated baseline's objects.
	variants := []variant{
		{mode: apps.ModeBaseline}, {mode: apps.ModeMorpheus},
		{mode: apps.ModeBaseline, setup: corun}, {mode: apps.ModeMorpheus, setup: corun},
	}
	points, err := runPoints(o, len(names), func(i int, po Options) (point, error) {
		app, err := apps.ByName(names[i])
		if err != nil {
			return point{}, err
		}
		// Each application is one tenant: runApp binds objectives named
		// after it to its systems only.
		runs, err := runVariants(po, "multiprog", app, app.Generate(po.scale(), po.Seed), variants)
		if err != nil {
			return point{}, err
		}
		pt := point{row: MultiprogRow{App: app.Name, BaseIsolated: runs[0].Deser, MorphIsolated: runs[1].Deser,
			BaseContended: runs[2].Deser, MorphContended: runs[3].Deser}}
		for _, r := range runs {
			pt.counters = append(pt.counters, r.Counters)
		}
		pt.row.BaseSlowdown = float64(pt.row.BaseContended) / float64(pt.row.BaseIsolated)
		pt.row.MorphSlowdown = float64(pt.row.MorphContended) / float64(pt.row.MorphIsolated)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	var baseS, morphS []float64
	total := stats.NewSet()
	for _, pt := range points {
		for _, c := range pt.counters {
			for _, n := range c.Names() {
				total.Add(n, c.Get(n))
			}
		}
		res.Rows = append(res.Rows, pt.row)
		baseS = append(baseS, pt.row.BaseSlowdown)
		morphS = append(morphS, pt.row.MorphSlowdown)
	}
	res.AvgBaseSlowdown = mean(baseS)
	res.AvgMorphSlowdown = mean(morphS)
	res.Counters = total.Snapshot()
	return res, nil
}

// Table renders the experiment.
func (r *MultiprogResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Multiprogrammed environment — deserialization under a %.0f%%-load co-runner (E12)",
			100*r.Load),
		Header: []string{"app", "baseline isolated", "baseline contended", "slowdown",
			"morpheus isolated", "morpheus contended", "slowdown"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App,
			row.BaseIsolated.String(), row.BaseContended.String(), f2(row.BaseSlowdown)+"x",
			row.MorphIsolated.String(), row.MorphContended.String(), f2(row.MorphSlowdown)+"x")
	}
	t.Note("conventional deserialization slows %sx under load; Morpheus %sx — the §III claim that offload \"frees up scarce CPU resources\"",
		f2(r.AvgBaseSlowdown), f2(r.AvgMorphSlowdown))
	return t
}
