package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"

	"morpheus/internal/apps"
	"morpheus/internal/array"
	"morpheus/internal/core"
	"morpheus/internal/exp"
	"morpheus/internal/serial"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
	"morpheus/internal/workload"
)

// Workload inputs. The seed is the benchmark's argument; everything else
// is fixed here so that every run of one seed does the same work.
const (
	// fig8Scale is the Table I fraction of the Figure 8 sweep: half the
	// morpheusbench default, so a run holds a dozen sweeps to take the
	// median of, with the same layer shares.
	fig8Scale = 1.0 / 512

	// array16 is E17 at 16 shards, 2 replicas, Poisson arrivals, with
	// the conservative-window executor on 2 goroutines. Three times E17's
	// 320 requests per point average out how much one seed's schedule
	// admits, which otherwise moves a run's time more than the host does.
	arrayScale         = 0.02
	arrayShards        = 16
	arrayReplicas      = 2
	arrayShardParallel = 2
	arrayRequests      = 960
	arrayWindow        = 100 * units.Microsecond
	traceHead          = 64
	traceLatency       = 10 * units.Millisecond

	// mwrite serializes mwriteObjects int32 arrays, one MWRITE train each.
	mwriteObjects    = 128
	mwriteIntsPerObj = 16 << 10
)

// Mirrors of internal/exp's unexported E17 constants and morpheusbench's
// trace cap. The composition tests fail if they drift from the experiment.
const (
	arrayTenants  = 2000
	arrayObjects  = 24
	arrayMeanGap  = 40 * units.Microsecond
	arrayMDTS     = 8 * units.KiB
	arrayObjBytes = 4 * units.MiB
	arrayAppName  = "grep"
	traceCap      = 1 << 20
)

// serializerSrc is E13's MWRITE StorageApp (internal/exp/serialize.go):
// little-endian int32 objects in, decimal text out.
const serializerSrc = `
StorageApp int serializer(ms_stream s) {
	int b0 = ms_read_byte(s);
	while (b0 >= 0) {
		int v = b0 | (ms_read_byte(s) << 8) | (ms_read_byte(s) << 16) | (ms_read_byte(s) << 24);
		v = (v << 32) >> 32;
		ms_printf("%d\n", v);
		b0 = ms_read_byte(s);
	}
	ms_memcpy();
	return 0;
}
`

// buildSystem mirrors exp's unexported buildSystem for the options the
// workloads set (default engines and CPU frequency).
func buildSystem(o exp.Options, withGPU bool, tr *tracer) (*core.System, error) {
	cfg := core.DefaultSystemConfig()
	cfg.WithGPU = withGPU
	if o.Mutate != nil {
		o.Mutate(&cfg)
	}
	end := tr.span("core.NewSystem", "")
	sys, err := core.NewSystem(cfg)
	end()
	if err != nil {
		return nil, err
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

// addSystem adds one finished system's event count and modelled
// component time (virtual) to the traced run's counts.
func (t *tracer) addSystem(sys *core.System) {
	if t == nil {
		return
	}
	virt := func(d units.Duration) float64 { return float64(d) / float64(units.Second) }
	t.add("sim.events", float64(sys.Engine.Fired()))
	for _, c := range sys.SSD.Cores() {
		t.add("ssd.cores.busy_virt_s", virt(c.BusyTime()))
	}
	t.add("flash.channels.busy_virt_s", virt(sys.SSD.Flash.ChannelBusyTime()))
	cores := sys.Host.Cores
	t.add("host.cores.busy_virt_s", virt(cores.BusyTime()))
	for i := 0; i < cores.Size(); i++ {
		t.add("host.cores.waited_virt_s", virt(cores.Member(i).Waited()))
	}
}

// ---- fig8 -----------------------------------------------------------

func fig8Options(seed int64) exp.Options {
	o := exp.DefaultOptions()
	o.Scale = fig8Scale
	o.Seed = seed
	o.Parallel = 1
	return o
}

// fig8NominalBytes is the raw text the sweep deserializes: each app's
// Table I size at scale, once per mode.
func fig8NominalBytes(scale float64) int64 {
	var n int64
	for _, app := range apps.All() {
		n += 2 * int64(float64(app.PaperInputSize)*scale)
	}
	return n
}

// fig8Compose runs exp.RunFig8's sweep as the public calls the experiment
// makes, one span per call. Its rows equal exp.RunFig8's
// (TestFig8Composition). When objects is non-nil the verified object
// streams are hashed into it.
func fig8Compose(o exp.Options, tr *tracer, objects hash.Hash) (*exp.Fig8Result, error) {
	res := &exp.Fig8Result{}
	var sum float64
	for _, app := range apps.All() {
		row, err := fig8Point(o, app, tr, objects)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		sum += row.Speedup
		if row.Speedup > res.Max {
			res.Max = row.Speedup
		}
		if row.App == "spmv" {
			res.SpMV = row.Speedup
		}
	}
	res.Avg = sum / float64(len(res.Rows))
	return res, nil
}

func fig8Point(o exp.Options, app *apps.App, tr *tracer, objects hash.Hash) (exp.Fig8Row, error) {
	defer tr.span("bench.point", app.Name)()
	base, err := fig8Run(o, app, apps.ModeBaseline, tr)
	if err != nil {
		return exp.Fig8Row{}, fmt.Errorf("fig8 %s baseline: %w", app.Name, err)
	}
	morph, err := fig8Run(o, app, apps.ModeMorpheus, tr)
	if err != nil {
		return exp.Fig8Row{}, fmt.Errorf("fig8 %s morpheus: %w", app.Name, err)
	}
	end := tr.span("apps.VerifyObjects", app.Name)
	err = apps.VerifyObjects(base, morph)
	end()
	if err != nil {
		return exp.Fig8Row{}, fmt.Errorf("fig8 %s: object mismatch: %w", app.Name, err)
	}
	if objects != nil {
		for i, obj := range base.Objects {
			fmt.Fprintf(objects, "%s/%d %d\n", app.Name, i, len(obj))
			objects.Write(obj)
		}
	}
	return exp.Fig8Row{
		App:           app.Name,
		BaselineDeser: base.Deser,
		MorpheusDeser: morph.Deser,
		Speedup:       float64(base.Deser) / float64(morph.Deser),
		CyclesPerByte: morph.CyclesPerByte,
	}, nil
}

// fig8Run is exp's runApp without telemetry: build, stage, reset, run.
func fig8Run(o exp.Options, app *apps.App, mode apps.Mode, tr *tracer) (*apps.Report, error) {
	sys, err := buildSystem(o, app.UsesGPU, tr)
	if err != nil {
		return nil, err
	}
	end := tr.span("apps.Stage", app.Name)
	files, shards, err := apps.Stage(sys, app, o.Scale, o.Seed)
	end()
	if err != nil {
		return nil, err
	}
	tr.add("apps.Stage.calls", 1)
	tr.add("apps.Stage.mb", float64(shards.TotalSize())/1e6)
	sys.ResetTimers()
	name := "apps.Run." + mode.String()
	end = tr.span(name, app.Name)
	rep, err := apps.Run(sys, app, files, mode)
	end()
	if err != nil {
		return nil, err
	}
	tr.add(name+".commands", float64(rep.Commands))
	tr.add(name+".raw_mb", float64(rep.RawBytes)/1e6)
	tr.add("core.retries", float64(rep.Retries))
	tr.add("core.fallbacks", float64(rep.Fallbacks))
	tr.addSystem(sys)
	return rep, nil
}

// fig8RowsDigest hashes every field of the figure at full precision:
// durations in picoseconds, floats in their shortest exact form.
func fig8RowsDigest(r *exp.Fig8Result) []byte {
	h := sha256.New()
	for _, row := range r.Rows {
		fmt.Fprintf(h, "%s %d %d %v %v\n", row.App, int64(row.BaselineDeser), int64(row.MorpheusDeser),
			row.Speedup, row.CyclesPerByte)
	}
	fmt.Fprintf(h, "avg %v max %v spmv %v\n", r.Avg, r.Max, r.SpMV)
	return h.Sum(nil)
}

// ---- array16 --------------------------------------------------------

func arrayOptions(seed int64) exp.Options {
	o := exp.DefaultOptions()
	o.Scale = arrayScale
	o.Seed = seed
	o.Parallel = 1
	o.ShardParallel = arrayShardParallel
	o.MetricsWindow = arrayWindow
	return o
}

// telemetry is morpheusbench's full telemetry for one experiment: the
// aggregate registry and a tail-sampled streaming trace, with the
// artifacts written to memory instead of disk.
type telemetry struct {
	tracer  *trace.Tracer
	stream  *trace.ChromeStream
	trace   bytes.Buffer
	metrics *stats.Registry
}

func newTelemetry() *telemetry {
	t := &telemetry{tracer: trace.New(traceCap), metrics: stats.NewRegistry()}
	t.tracer.SetSamplePolicy(trace.SamplePolicy{Head: traceHead, Latency: traceLatency})
	t.stream = trace.NewChromeStream(&t.trace)
	t.tracer.SetSink(t.stream)
	return t
}

// artifacts finishes the trace and renders the metrics and series JSON.
func (t *telemetry) artifacts(tr *tracer) (metricsJSON, seriesJSON, traceJSON []byte, err error) {
	end := tr.span("trace.Close", "")
	err = t.stream.Close()
	end()
	if err != nil {
		return nil, nil, nil, err
	}
	var m, s bytes.Buffer
	end = tr.span("stats.WriteJSON", "")
	err = t.metrics.WriteJSON(&m)
	end()
	if err != nil {
		return nil, nil, nil, err
	}
	end = tr.span("stats.WriteSeries", "")
	err = t.metrics.WriteSeriesJSON(&s)
	end()
	if err != nil {
		return nil, nil, nil, err
	}
	tr.add("trace.recorded", float64(t.tracer.Recorded()))
	tr.add("trace.kept", float64(t.tracer.Kept()))
	return m.Bytes(), s.Bytes(), t.trace.Bytes(), nil
}

// arrayFleet is one staged E17 grid point.
type arrayFleet struct {
	loss    bool
	a       *array.Array
	trace   *trace.Tracer   // the point's child tracer
	metrics *stats.Registry // the point's registry, folded after serving
}

// arrayWork is array16 between setup and serving: both grid points'
// fleets built and staged, as exp.RunArray builds them one at a time.
type arrayWork struct {
	o      exp.Options
	app    *apps.App
	fleets []*arrayFleet
	// objBytes is the mean staged object size.
	objBytes float64
}

// arraySetup builds and stages the healthy and the shard-loss fleet.
func arraySetup(o exp.Options, tel *telemetry, tr *tracer) (*arrayWork, error) {
	o.Trace, o.Metrics = tel.tracer, tel.metrics
	app, err := apps.ByName(arrayAppName)
	if err != nil {
		return nil, err
	}
	w := &arrayWork{o: o, app: app}
	classes := array.DefaultClasses()
	objBytes := units.Bytes(float64(arrayObjBytes) * o.Scale)
	if objBytes < 4*units.KiB {
		objBytes = 4 * units.KiB
	}
	for _, loss := range []bool{false, true} {
		so := o
		so.Mutate = func(cfg *core.SystemConfig) { cfg.SSD.MDTS = arrayMDTS }
		end := tr.span("array.New", "")
		a, err := array.New(array.Config{Shards: arrayShards, Replicas: arrayReplicas}, func(shard int) (*core.System, error) {
			so.SLOs = classSLOs(shard, classes)
			return buildSystem(so, false, tr)
		})
		end()
		if err != nil {
			return nil, err
		}
		var staged int64
		for i := 0; i < arrayObjects; i++ {
			end := tr.span("workload.Gen", app.Name)
			data := app.Gen(objBytes, 1, o.Seed+int64(i)*9176)
			end()
			end = tr.span("array.StageObject", "")
			err := a.StageObject(array.ObjectName(i), data[0])
			end()
			if err != nil {
				return nil, err
			}
			tr.add("array.StageObject.calls", 1)
			staged += int64(len(data[0]))
		}
		w.objBytes = float64(staged) / arrayObjects
		a.ResetTimers()
		w.fleets = append(w.fleets, &arrayFleet{loss: loss, a: a, trace: o.Trace.Child(), metrics: stats.NewRegistry()})
	}
	return w, nil
}

// classSLOs is exp's per-shard SLO set with no caller SLOs: each QoS
// class's default objective, bound to the shard-qualified tenant.
func classSLOs(shard int, classes []array.Class) []stats.SLOConfig {
	var out []stats.SLOConfig
	for _, cl := range classes {
		out = append(out, stats.SLOConfig{
			Name:     exp.TenantID(cl.Name, shard),
			Metric:   "array.request.latency_ps." + cl.Name,
			TargetPS: cl.TargetPS,
			Budget:   cl.Budget,
		})
	}
	return out
}

// serve runs both points' traffic and folds their telemetry in point
// order, as exp.RunArray does with Parallel 1. served counts requests
// that returned objects.
func (w *arrayWork) serve(tr *tracer) (res *exp.ArrayResult, arrivals, failed, served int, err error) {
	res = &exp.ArrayResult{}
	for _, f := range w.fleets {
		row, tres, err := w.servePoint(f, tr)
		if err != nil {
			return nil, arrivals, failed, served, err
		}
		res.Rows = append(res.Rows, row)
		arrivals += tres.Arrivals
		failed += tres.Errors
		served += tres.Admitted - tres.Errors
	}
	return res, arrivals, failed, served, nil
}

func (w *arrayWork) servePoint(f *arrayFleet, tr *tracer) (exp.ArrayRow, *array.TrafficResult, error) {
	detail := "healthy"
	if f.loss {
		detail = "shard-loss"
	}
	defer tr.span("bench.point", detail)()
	a := f.a
	a.AttachTracer(f.trace)
	kill := -1
	if f.loss {
		kill = primaryArgmax(a)
		a.KillShard(kill)
	}
	tc := array.TrafficConfig{
		Tenants:  arrayTenants,
		Requests: arrayRequests,
		Objects:  arrayObjects,
		Mean:     arrayMeanGap,
		Mix:      array.MixPoisson,
		Seed:     w.o.Seed,
		App:      w.app.StorageApp(),
		Parser:   w.app.HostParser,
		Spec:     w.app.Spec,
		Classes:  array.DefaultClasses(),
	}
	slots := w.o.ShardParallel
	if slots > len(a.Shards) {
		slots = len(a.Shards)
	}
	end := tr.span("array.RunTraffic", detail)
	tres, err := array.RunTrafficParallel(a, tc, slots)
	end()
	if err != nil {
		return exp.ArrayRow{}, nil, err
	}
	if f.loss && tres.ShardArrivals[kill] > 0 && tres.Path[core.PathReplicaFallback] == 0 {
		return exp.ArrayRow{}, nil, fmt.Errorf("array loss point (shard %d down, %d arrivals) served no replica re-fetches",
			kill, tres.ShardArrivals[kill])
	}

	pointReg := stats.NewRegistry()
	pointReg.EnableSeries(int64(w.o.MetricsWindow))
	end = tr.span("stats.Registry.Merge", "shards")
	for _, sh := range a.Shards {
		pointReg.Merge(sh.Sys.Metrics)
	}
	f.metrics.Merge(pointReg)
	end()
	row := exp.ArrayRow{
		Shards:      len(a.Shards),
		Replicas:    a.Cfg.Replicas,
		Mix:         array.MixPoisson,
		Loss:        f.loss,
		Arrivals:    tres.Arrivals,
		Admitted:    tres.Admitted,
		Rejected:    tres.Rejected,
		Errors:      tres.Errors,
		Path:        tres.Path,
		RemoteReads: pointReg.Counters().Get("array.replica.remote_reads"),
		P99:         units.Duration(pointReg.Histogram("array.request.latency_ps").Quantile(0.99)),
		GoldP99:     units.Duration(pointReg.Histogram("array.request.latency_ps.gold").Quantile(0.99)),
		GoldBurn:    tres.Classes[0].Burn(),
		FairTenants: tres.FairnessTenants,
		FairShards:  tres.FairnessShards,
		SlotsUtil:   pointReg.Gauge("array.shard.slots_util").Mean() / float64(len(a.Shards)),
	}

	end = tr.span("trace.Adopt", "")
	w.o.Trace.Adopt(f.trace)
	end()
	end = tr.span("stats.Registry.Merge", "point")
	w.o.Metrics.Merge(f.metrics)
	end()

	tr.add("array.arrivals", float64(tres.Arrivals))
	tr.add("array.admitted", float64(tres.Admitted))
	tr.add("array.replica_fetches", float64(row.RemoteReads))
	tr.add("array.windows", float64(tres.Windows))
	tr.add("array.rounds", float64(tres.Rounds))
	tr.add("array.deferred_fetches", float64(tres.DeferredFetches))
	tr.add("array.early_fetches", float64(tres.EarlyFetches))
	for _, sh := range a.Shards {
		tr.addSystem(sh.Sys)
	}
	return row, tres, nil
}

// primaryArgmax is the shard that is primary for the most staged objects
// (lowest ID on ties), the one exp's loss point kills.
func primaryArgmax(a *array.Array) int {
	counts := make([]int, len(a.Shards))
	for i := 0; i < arrayObjects; i++ {
		counts[a.Place(array.ObjectName(i))[0]]++
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

// arrayRowsDigest hashes every row field at full precision.
func arrayRowsDigest(r *exp.ArrayResult) []byte {
	h := sha256.New()
	for _, row := range r.Rows {
		fmt.Fprintf(h, "%d %d %s %v %d %d %d %d %v %d %d %d %v %v %v %v\n",
			row.Shards, row.Replicas, row.Mix, row.Loss, row.Arrivals, row.Admitted, row.Rejected, row.Errors,
			row.Path, row.RemoteReads, int64(row.P99), int64(row.GoldP99), row.GoldBurn,
			row.FairTenants, row.FairShards, row.SlotsUtil)
	}
	return h.Sum(nil)
}

// ---- mwrite ---------------------------------------------------------

// mwriteWork is the mwrite workload after setup: int32 objects generated
// from the seed and an output extent staged for each.
type mwriteWork struct {
	sys  *core.System
	app  *core.StorageApp
	objs [][]byte
	outs []*core.File
}

func mwriteSetup(seed int64, tr *tracer) (*mwriteWork, error) {
	sys, err := buildSystem(exp.Options{}, false, tr)
	if err != nil {
		return nil, err
	}
	w := &mwriteWork{sys: sys, app: &core.StorageApp{Name: "serializer", Source: serializerSrc}}
	for i := 0; i < mwriteObjects; i++ {
		end := tr.span("workload.Gen", "int32")
		vals := workload.IntArray(mwriteIntsPerObj, 1<<30, 8, 1, seed+int64(i))[0]
		obj, err := serial.ParseTokens(vals, serial.FieldInt32)
		end()
		if err != nil {
			return nil, err
		}
		// Decimal int32 text is at most 12 bytes per 4-byte object.
		end = tr.span("core.WriteFile", "")
		out, err := sys.WriteFile(fmt.Sprintf("out%04d.txt", i), make([]byte, 3*len(obj)+4096))
		end()
		if err != nil {
			return nil, err
		}
		w.objs = append(w.objs, obj)
		w.outs = append(w.outs, out)
	}
	sys.ResetTimers()
	return w, nil
}

// serialize runs one MWRITE serialization per object, back to back on
// the virtual clock. A failed call leaves a nil result.
func (w *mwriteWork) serialize(tr *tracer) ([]*core.SerializeResult, []error) {
	results := make([]*core.SerializeResult, len(w.objs))
	errs := make([]error, len(w.objs))
	var ready units.Time
	cmds0 := w.sys.Counters.Get(stats.MorphCommands)
	for i, obj := range w.objs {
		end := tr.span("core.SerializeStorageApp", "")
		res, err := w.sys.SerializeStorageApp(ready, w.app, w.outs[i], obj, nil)
		end()
		if err != nil {
			errs[i] = err
			continue
		}
		results[i] = res
		ready = res.Done
		tr.add("core.SerializeStorageApp.calls", 1)
		tr.add("core.SerializeStorageApp.mb_out", float64(len(res.Written))/1e6)
	}
	// Every call is one MINIT, its MWRITE train and one MDEINIT.
	tr.add("nvme.mwrite_cmds", float64(w.sys.Counters.Get(stats.MorphCommands)-cmds0)-2*float64(len(w.objs)))
	tr.addSystem(w.sys)
	return results, errs
}

// mwriteWant is the host oracle for one object's text.
func mwriteWant(obj []byte) []byte {
	var want []byte
	for _, v := range serial.DecodeI32(obj) {
		want = serial.AppendIntText(want, int64(v), '\n')
	}
	return want
}
