package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"morpheus/internal/apps"
	"morpheus/internal/exp"
)

// workloadDef is one named workload: its parameters for the run record
// and the function that runs it once in a child process.
type workloadDef struct {
	params map[string]any
	run    func(m *measure, seed int64)
}

var workloads = map[string]workloadDef{
	"fig8": {
		params: map[string]any{"scale": fig8Scale, "parallel": 1, "apps": len(apps.All()),
			"modes": "baseline,morpheus", "telemetry": "off"},
		run: runFig8,
	},
	"array16": {
		params: map[string]any{"scale": arrayScale, "shards": arrayShards, "replicas": arrayReplicas,
			"shard_parallel": arrayShardParallel, "arrival": "poisson:40us", "points": "healthy,shard-loss",
			"tenants": arrayTenants, "requests": arrayRequests, "objects": arrayObjects,
			"telemetry": "window=100us slo=per-class trace=head=64,lat=10ms streamed to memory"},
		run: runArray,
	},
	"mwrite": {
		params: map[string]any{"objects": mwriteObjects, "ints_per_object": mwriteIntsPerObj,
			"storage_app": "E13 serializer", "telemetry": "off"},
		run: runMwrite,
	},
}

// reference holds the committed fidelity digests for the default seed.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Seed    int64                        `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

// measure is one child's run: the timed phase, the checks and digests,
// and, when traced, the span recorder.
type measure struct {
	wl    string
	tr    *tracer
	ref   map[string]string // nil when the seed has no committed reference
	res   childResult
	start time.Time
	// timedFrom is the tracer clock at the start of the timed phase.
	timedFrom time.Duration
	rt0       []metrics.Sample
	rt1       []metrics.Sample
}

func runtimeSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
}

func (m *measure) begin() {
	m.rt0 = runtimeSamples()
	metrics.Read(m.rt0)
	if m.tr != nil {
		m.timedFrom = time.Since(m.tr.t0)
	}
	m.start = time.Now()
	m.res.TimedStart = m.start.UnixNano()
}

func (m *measure) finish() {
	m.res.Wall = time.Since(m.start).Seconds()
	m.rt1 = runtimeSamples()
	metrics.Read(m.rt1)
	m.res.AllocBytes = m.rt1[0].Value.Uint64() - m.rt0[0].Value.Uint64()
}

// check counts one check and reports it when it fails.
func (m *measure) check(ok bool, format string, args ...any) {
	m.res.Attempted++
	if !ok {
		m.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", m.wl, fmt.Sprintf(format, args...))
	}
}

// failAll counts n checks that an error left unverified.
func (m *measure) failAll(n int, err error) {
	m.res.Attempted += n
	m.res.Failed += n
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d checks failed: %v\n", m.wl, n, err)
}

// digest records one component of the fidelity digest and, on the
// reference seed, checks it against the committed value.
func (m *measure) digest(component string, sum []byte) {
	got := hex.EncodeToString(sum)
	m.res.Digests[component] = got
	if m.ref != nil {
		m.check(m.ref[component] == got, "digest %q is %s, reference %s", component, got, m.ref[component])
	}
}

func runChild(wl string, seed int64, mode, spansOut string) error {
	m := &measure{wl: wl, res: childResult{Mode: mode, Digests: map[string]string{}}}
	switch mode {
	case "plain":
	case "traced":
		m.tr = newTracer()
	default:
		return fmt.Errorf("unknown -child mode %q", mode)
	}
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	if seed == ref.Seed {
		// A workload missing from the reference fails every digest check.
		m.ref = ref.Digests[wl]
		if m.ref == nil {
			m.ref = map[string]string{}
		}
	}
	workloads[wl].run(m, seed)
	if m.tr != nil {
		m.res.Layers = m.layers()
		if spansOut != "" {
			if err := writeSpans(spansOut, m.tr, wl); err != nil {
				return err
			}
		}
	}
	rss, err := peakRSSKB()
	if err != nil {
		return err
	}
	m.res.PeakRSSKB = rss
	return json.NewEncoder(os.Stdout).Encode(&m.res)
}

func writeSpans(path string, tr *tracer, wl string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.writeChrome(f, "perfbench "+wl+" (host time)"); err != nil {
		return err
	}
	return f.Close()
}

// peakRSSKB reads the process's resident-set high-water mark (VmHWM).
func peakRSSKB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}

// layers derives the per-layer metrics from the traced run's spans and
// counts. Host times and go.heap_peak_mb cover the whole child, set-up
// included; the remaining figures cover the timed phase.
func (m *measure) layers() map[string]float64 {
	tr := m.tr
	out := map[string]float64{}
	for name, d := range tr.self(0) {
		out[name+".host_s"] = d.Seconds()
	}
	for name, v := range tr.counts {
		out[name] = v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["core.retry_ratio"] = ratio(tr.counts["core.retries"], tr.counts["apps.Run.morpheus.commands"])
	out["array.requests_per_host_s"] = ratio(tr.counts["array.arrivals"], out["array.RunTraffic.host_s"])
	out["array.admit_ratio"] = ratio(tr.counts["array.admitted"], tr.counts["array.arrivals"])
	out["trace.keep_ratio"] = ratio(tr.counts["trace.kept"], tr.counts["trace.recorded"])
	out["sim.host_ns_per_event"] = ratio(m.res.Wall*1e9, tr.counts["sim.events"])
	out["go.gc_cycles"] = float64(m.rt1[1].Value.Uint64() - m.rt0[1].Value.Uint64())
	out["go.gc_cpu_s"] = m.rt1[2].Value.Float64() - m.rt0[2].Value.Float64()
	out["go.heap_peak_mb"] = float64(tr.heapPeak) / 1e6
	attributed := 0.0
	for name, d := range tr.self(m.timedFrom) {
		if !strings.HasPrefix(name, "bench.") {
			attributed += d.Seconds()
		}
	}
	out["bench.unattributed_s"] = m.res.Wall - attributed
	return out
}

// ---- the three workloads ---------------------------------------------

// runFig8 times exp.RunFig8 when plain and its composition when traced;
// the traced run also hashes the verified object streams, under a
// bench.digest span taken out of its wall time.
func runFig8(m *measure, seed int64) {
	o := fig8Options(seed)
	var res *exp.Fig8Result
	var err error
	var objects hash.Hash
	m.begin()
	if m.tr == nil {
		res, err = exp.RunFig8(o)
	} else {
		objects = &spannedHash{Hash: sha256.New(), tr: m.tr}
		res, err = fig8Compose(o, m.tr, objects)
	}
	m.finish()
	if m.tr != nil {
		m.res.Wall -= m.tr.self(m.timedFrom)["bench.digest"].Seconds()
	}
	m.res.SimBytes = fig8NominalBytes(o.Scale)
	points := len(apps.All())
	if err != nil {
		m.failAll(points, err)
		return
	}
	// exp.RunFig8 fails on the first point whose objects differ from the
	// host parser's, so each returned row is a passed check.
	m.res.Attempted += len(res.Rows)
	m.check(len(res.Rows) == points, "fig8 has %d rows, want %d", len(res.Rows), points)
	m.digest("rows", fig8RowsDigest(res))
	if objects != nil {
		m.digest("objects", objects.Sum(nil))
	}
}

// spannedHash records its writes as bench.digest spans.
type spannedHash struct {
	hash.Hash
	tr *tracer
}

func (h *spannedHash) Write(p []byte) (int, error) {
	defer h.tr.span("bench.digest", "")()
	return h.Hash.Write(p)
}

// runArray stages both fleets in setup and times serving plus the
// telemetry artifacts; the plain and traced runs are one composition,
// which TestArrayComposition holds equal to exp.RunArray.
func runArray(m *measure, seed int64) {
	tel := newTelemetry()
	w, err := arraySetup(arrayOptions(seed), tel, m.tr)
	if err != nil {
		m.begin()
		m.finish()
		m.failAll(2*arrayRequests, err)
		return
	}
	m.begin()
	res, arrivals, failed, served, err := w.serve(m.tr)
	var metricsJSON, seriesJSON, traceJSON []byte
	if err == nil {
		metricsJSON, seriesJSON, traceJSON, err = tel.artifacts(m.tr)
	}
	m.finish()
	m.res.SimBytes = int64(float64(served) * w.objBytes)
	if err != nil {
		m.failAll(2*arrayRequests, err)
		return
	}
	// Each request is one check: the engine fails the run if a response
	// differs from the object's first, and counts unservable requests.
	m.res.Attempted += arrivals
	m.res.Failed += failed
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: array16: %d of %d requests failed\n", failed, arrivals)
	}
	m.check(json.Valid(metricsJSON) && json.Valid(seriesJSON) && json.Valid(traceJSON), "array16 artifacts are not valid JSON")
	sum := func(b []byte) []byte { s := sha256.Sum256(b); return s[:] }
	m.digest("rows", arrayRowsDigest(res))
	m.digest("metrics", sum(metricsJSON))
	m.digest("series", sum(seriesJSON))
	m.digest("trace", sum(traceJSON))
}

// runMwrite times one MWRITE serialization per object and checks each
// text against the host formatter.
func runMwrite(m *measure, seed int64) {
	w, err := mwriteSetup(seed, m.tr)
	if err != nil {
		m.begin()
		m.finish()
		m.failAll(mwriteObjects, err)
		return
	}
	m.begin()
	results, errs := w.serialize(m.tr)
	m.finish()
	rows, text := sha256.New(), sha256.New()
	for i, obj := range w.objs {
		m.res.SimBytes += int64(len(obj))
		if errs[i] != nil {
			m.check(false, "object %d: %v", i, errs[i])
			continue
		}
		r := results[i]
		m.check(bytes.Equal(r.Written, mwriteWant(obj)), "object %d text differs from serial.AppendIntText", i)
		fmt.Fprintf(rows, "%d %d %d %d\n", i, int64(r.Done), r.RetVal, len(r.Written))
		text.Write(r.Written)
	}
	m.digest("rows", rows.Sum(nil))
	m.digest("text", text.Sum(nil))
}
