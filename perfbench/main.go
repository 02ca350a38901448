// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's public entry points, repeatedly, each
// time in a fresh child process, for about -seconds of host time, checks
// every output against the data-plane oracles and the committed fidelity
// digest, and prints the medians as one JSON line:
//
//	perfbench -workload fig8|array16|mwrite -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics, measured with layer
// spans off. With -trace 1 it alternates plain and traced children and
// reports the per-layer metrics of the traced ones: host time per layer
// call, counts at the same boundaries, modelled (virtual) component time
// and Go runtime figures. perfbench/run.sh builds it from source and runs
// it; perfbench/README.md lists the layers each metric belongs to.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// schemaVersion numbers the run record's layout.
const schemaVersion = 1

const defaultSeed = 20160618

// childTimeout bounds the whole run, so a hung child cannot outlive the
// benchmark's own time limit.
const childTimeout = 170 * time.Second

// metric is one reported metric and its unit.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_mb_per_s", "MB/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not reach reads 0.
var perLayer = []metric{
	{"apps.Stage.host_s", "s"}, {"apps.Stage.calls", "count"}, {"apps.Stage.mb", "MB"},
	{"apps.Run.baseline.host_s", "s"}, {"apps.Run.baseline.commands", "count"}, {"apps.Run.baseline.raw_mb", "MB"},
	{"apps.Run.morpheus.host_s", "s"}, {"apps.Run.morpheus.commands", "count"},
	{"core.retry_ratio", "ratio"}, {"core.fallbacks", "count"},
	{"core.NewSystem.host_s", "s"}, {"apps.VerifyObjects.host_s", "s"},
	{"array.RunTraffic.host_s", "s"}, {"array.requests_per_host_s", "1/s"}, {"array.admit_ratio", "ratio"},
	{"array.replica_fetches", "count"}, {"array.windows", "count"}, {"array.rounds", "count"},
	{"array.deferred_fetches", "count"}, {"array.early_fetches", "count"},
	{"array.New.host_s", "s"}, {"workload.Gen.host_s", "s"},
	{"array.StageObject.host_s", "s"}, {"array.StageObject.calls", "count"}, {"core.WriteFile.host_s", "s"},
	{"core.SerializeStorageApp.host_s", "s"}, {"core.SerializeStorageApp.calls", "count"},
	{"core.SerializeStorageApp.mb_out", "MB"}, {"nvme.mwrite_cmds", "count"},
	{"stats.Registry.Merge.host_s", "s"}, {"stats.WriteJSON.host_s", "s"}, {"stats.WriteSeries.host_s", "s"},
	{"trace.Adopt.host_s", "s"}, {"trace.Close.host_s", "s"}, {"trace.recorded", "count"}, {"trace.keep_ratio", "ratio"},
	{"sim.events", "count"}, {"sim.host_ns_per_event", "ns"},
	{"ssd.cores.busy_virt_s", "s"}, {"flash.channels.busy_virt_s", "s"},
	{"host.cores.busy_virt_s", "s"}, {"host.cores.waited_virt_s", "s"},
	{"go.gc_cycles", "count"}, {"go.gc_cpu_s", "s"}, {"go.heap_peak_mb", "MB"},
	{"bench.unattributed_s", "s"}, {"bench.span_overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// childResult is what one child process measured.
type childResult struct {
	Mode       string             `json:"mode"`
	TimedStart int64              `json:"timed_start_unix_ns"`
	Wall       float64            `json:"wall_s"`
	SimBytes   int64              `json:"sim_bytes"`
	AllocBytes uint64             `json:"alloc_bytes"`
	PeakRSSKB  int64              `json:"peak_rss_kb"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Digests    map[string]string  `json:"digests"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	SetupS     float64            `json:"setup_s"` // set by the parent
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload to run: fig8, array16 or mwrite")
		seed     = flag.Int64("seed", defaultSeed, "workload generator seed")
		seconds  = flag.Float64("seconds", 10, "host seconds to spend measuring")
		traced   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from traced runs")
		commit   = flag.String("commit", "unknown", "source revision recorded in the run record")
		spansOut = flag.String("spans-out", "", "with -trace 1, write one traced run's layer spans to this Chrome trace-event file")
		child    = flag.String("child", "", "run the workload once in this process, as plain or traced, and print its measurements")
	)
	flag.Parse()
	if _, ok := workloads[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want fig8, array16 or mwrite)\n", *wl)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(*wl, *seed, *child, *spansOut); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runParent(*wl, *seed, *seconds, *traced == 1, *commit, *spansOut); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runParent launches children until the time is spent, then prints the
// run record and the result line.
func runParent(wl string, seed int64, seconds float64, traced bool, commit, spansOut string) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// At least three plain children, or two plain/traced pairs, so every
	// median has company; then more while another fits in the time left.
	minChildren := 3
	if traced {
		minChildren = 4
	}
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	var children []*childResult
	var longest time.Duration
	for i := 0; ; i++ {
		if i >= minChildren && (!traced || i%2 == 0) && time.Since(start)+longest > budget {
			break
		}
		mode := "plain"
		args := []string{"-workload", wl, "-seed", strconv.FormatInt(seed, 10)}
		if traced && i%2 == 1 {
			mode = "traced"
			if i == 1 && spansOut != "" {
				args = append(args, "-spans-out", spansOut)
			}
		}
		args = append(args, "-child", mode)
		t0 := time.Now()
		c, err := launch(ctx, self, args)
		if err != nil {
			return fmt.Errorf("%s child %d: %w", mode, i, err)
		}
		if d := time.Since(t0); d > longest {
			longest = d
		}
		c.SetupS = float64(c.TimedStart-t0.UnixNano()) / 1e9
		children = append(children, c)
	}
	return report(os.Stdout, wl, seed, seconds, traced, commit, children)
}

// launch runs one child and decodes the measurements it prints last.
func launch(ctx context.Context, self string, args []string) (*childResult, error) {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	c := &childResult{}
	if err := json.Unmarshal(lines[len(lines)-1], c); err != nil {
		return nil, fmt.Errorf("decode child result: %w", err)
	}
	return c, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report folds the children into the run record and the result line.
func report(w io.Writer, wl string, seed int64, seconds float64, traced bool, commit string, children []*childResult) error {
	attempted, failed := 0, 0
	var plain, tracedRuns []*childResult
	digests := map[string]string{}
	for _, c := range children {
		attempted += c.Attempted
		failed += c.Failed
		if c.Mode == "traced" {
			tracedRuns = append(tracedRuns, c)
		} else {
			plain = append(plain, c)
		}
		// Every child ran the same seed, so their digests must agree.
		for k, v := range c.Digests {
			attempted++
			if prev, ok := digests[k]; ok && prev != v {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s digest %q differs between children of one seed\n", wl, k)
				continue
			}
			digests[k] = v
		}
	}
	over := func(cs []*childResult, f func(*childResult) float64) float64 {
		var xs []float64
		for _, c := range cs {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	values := map[string]float64{}
	list := endToEnd
	if traced {
		list = perLayer
		for _, m := range perLayer {
			name := m.name
			values[name] = over(tracedRuns, func(c *childResult) float64 { return c.Layers[name] })
		}
		plainWall := over(plain, func(c *childResult) float64 { return c.Wall })
		tracedWall := over(tracedRuns, func(c *childResult) float64 { return c.Wall })
		values["bench.span_overhead_frac"] = tracedWall/plainWall - 1
		values["failed_frac"] = float64(failed) / float64(attempted)
	} else {
		values["wall_s"] = over(plain, func(c *childResult) float64 { return c.Wall })
		values["setup_s"] = over(plain, func(c *childResult) float64 { return c.SetupS })
		values["sim_mb_per_s"] = over(plain, func(c *childResult) float64 { return float64(c.SimBytes) / 1e6 / c.Wall })
		values["peak_rss_mb"] = over(plain, func(c *childResult) float64 { return float64(c.PeakRSSKB) / 1024 })
		values["alloc_mb"] = over(plain, func(c *childResult) float64 { return float64(c.AllocBytes) / 1e6 })
	}

	record := map[string]any{
		"schema":   schemaVersion,
		"manifest": manifest(wl, seed, seconds, traced, commit),
		"digests":  digests,
		"children": children,
	}
	result := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metricsJSON(list, values),
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(record); err != nil {
		return err
	}
	if err := enc.Encode(result); err != nil {
		return err
	}
	return bw.Flush()
}

func metricsJSON(list []metric, values map[string]float64) map[string]any {
	out := map[string]any{}
	for _, m := range list {
		out[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	return out
}

// manifest records how to reproduce the run.
func manifest(wl string, seed int64, seconds float64, traced bool, commit string) map[string]any {
	return map[string]any{
		"schema":     schemaVersion,
		"workload":   wl,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"params":     workloads[wl].params,
	}
}
