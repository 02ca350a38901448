package exp

import (
	"bytes"
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/host"
	"morpheus/internal/units"
)

// Fig3Cell is one bar of Figure 3: effective deserialization bandwidth
// (object bytes produced per second per I/O thread) for one application on
// one storage medium at one CPU frequency.
type Fig3Cell struct {
	App       string
	Medium    string
	CPUFreq   units.Frequency
	Effective units.Bandwidth
}

// Fig3Result is the whole figure.
type Fig3Result struct {
	// Cells lists each application's cells together, frequency-major.
	Cells []Fig3Cell
	// Ratios summarize the paper's two claims at 2.5 GHz: NVMe/HDD and
	// RamDrive/NVMe.
	NVMeOverHDD25    float64
	RAMOverNVMe25    float64
	NVMeOverHDD12    float64
	Slowdown12over25 float64
}

// fig3Media and fig3Freqs list the media and host frequencies in the
// figure's order.
var (
	fig3Media = []string{"NVMe SSD", "RamDrive", "HDD"}
	fig3Freqs = []units.Frequency{2.5 * units.GHz, 1.2 * units.GHz}
)

// RunFig3 regenerates Figure 3: the same conventional deserializer fed
// from the NVMe SSD, a RAM drive, and a hard drive, at 2.5 and 1.2 GHz —
// demonstrating that object deserialization is CPU-bound. Each
// application is one runPoints point: it generates one thread's worth of
// data once and runs all six cells over it, checking that every cell
// builds the same objects.
func RunFig3(o Options) (*Fig3Result, error) {
	all := apps.All()
	perApp, err := runPoints(o, len(all), func(i int, po Options) ([]Fig3Cell, error) {
		app := all[i]
		target := units.Bytes(float64(app.PaperInputSize) * po.scale() / float64(app.Threads))
		shard := app.Gen(target, 1, po.Seed)[0]
		var cells []Fig3Cell
		var first []byte
		for _, f := range fig3Freqs {
			for _, medium := range fig3Media {
				bw, out, err := fig3Run(app, medium, f, po, shard)
				if err != nil {
					return nil, fmt.Errorf("fig3 %s/%s: %w", app.Name, medium, err)
				}
				if cells == nil {
					first = out
				} else if !bytes.Equal(first, out) {
					return nil, fmt.Errorf("fig3 %s/%s at %v: objects differ from %s at %v",
						app.Name, medium, f, fig3Media[0], fig3Freqs[0])
				}
				cells = append(cells, Fig3Cell{App: app.Name, Medium: medium, CPUFreq: f, Effective: bw})
			}
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	// The ratios are float sums; summing in app → frequency → medium
	// order fixes their grouping at any worker count.
	res := &Fig3Result{}
	sums := [2]map[string]float64{{}, {}}
	for _, cells := range perApp {
		for k, c := range cells {
			res.Cells = append(res.Cells, c)
			sums[k/len(fig3Media)][c.Medium] += float64(c.Effective)
		}
	}
	n := float64(len(all))
	res.NVMeOverHDD25 = sums[0]["NVMe SSD"] / sums[0]["HDD"]
	res.RAMOverNVMe25 = sums[0]["RamDrive"] / sums[0]["NVMe SSD"]
	res.NVMeOverHDD12 = sums[1]["NVMe SSD"] / sums[1]["HDD"]
	res.Slowdown12over25 = (sums[0]["NVMe SSD"] / n) / (sums[1]["NVMe SSD"] / n)
	return res, nil
}

// fig3Run measures one cell, a single I/O thread over shard, and returns
// its effective bandwidth and the objects it built.
func fig3Run(app *apps.App, medium string, freq units.Frequency, o Options, shard []byte) (units.Bandwidth, []byte, error) {
	sys, err := buildSystem(o, false)
	if err != nil {
		return 0, nil, err
	}
	sys.Host.SetFrequency(freq)
	var res *core.DeserResult
	switch medium {
	case "NVMe SSD":
		var f *core.File
		if f, err = sys.WriteFile(app.Name+"/fig3", shard); err != nil {
			return 0, nil, err
		}
		sys.ResetTimers()
		res, err = sys.DeserializeConventional(0, f, app.HostParser(), app.Spec, 0)
	case "RamDrive":
		res, err = sys.DeserializeFromMedium(0, host.NewRAMDrive(sys.Host), shard, app.HostParser(), app.Spec, 0)
	default: // HDD
		res, err = sys.DeserializeFromMedium(0, host.NewHDD(sys.Host), shard, app.HostParser(), app.Spec, 0)
	}
	if err != nil {
		return 0, nil, err
	}
	if res.Done == 0 {
		return 0, nil, fmt.Errorf("fig3: zero-duration run")
	}
	return units.Bandwidth(float64(len(res.Out)) / units.Duration(res.Done).Seconds()), res.Out, nil
}

// Table renders the figure.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title: "Figure 3 — effective deserialization bandwidth per I/O thread",
		Header: []string{"app",
			"NVMe@2.5GHz", "Ram@2.5GHz", "HDD@2.5GHz",
			"NVMe@1.2GHz", "Ram@1.2GHz", "HDD@1.2GHz"},
	}
	for i, c := range r.Cells {
		if i == 0 || c.App != r.Cells[i-1].App {
			t.AddRow(c.App)
		}
		row := &t.Rows[len(t.Rows)-1]
		*row = append(*row, c.Effective.String())
	}
	t.Note("NVMe/HDD at 2.5GHz = %s (paper: ~1.5x); RamDrive/NVMe at 2.5GHz = %s (paper: ~1.0 — CPU-bound)",
		f2(r.NVMeOverHDD25), f2(r.RAMOverNVMe25))
	t.Note("NVMe/HDD at 1.2GHz = %s (paper: marginal differences); 2.5GHz/1.2GHz on NVMe = %s (significant degradation)",
		f2(r.NVMeOverHDD12), f2(r.Slowdown12over25))
	return t
}
