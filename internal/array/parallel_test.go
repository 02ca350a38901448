package array

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// parFleet builds a staged fleet.
func parFleet(t *testing.T, shards, replicas, objects int) (*Array, *apps.App) {
	t.Helper()
	a, err := New(Config{Shards: shards, Replicas: replicas}, testBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		data := app.Gen(16*units.KiB, 1, 1000+int64(i))
		if err := a.StageObject(ObjectName(i), data[0]); err != nil {
			t.Fatal(err)
		}
	}
	a.ResetTimers()
	return a, app
}

// windowTraffic spans several conservative windows: 60 arrivals at a
// 200 µs mean cover ~12 ms of virtual time against the ~3 ms lookahead
// window, so degraded-mode re-fetches are forced across window
// boundaries rather than all landing inside the first one.
func windowTraffic(app *apps.App, objects int, seed int64) TrafficConfig {
	return TrafficConfig{
		Tenants:  48,
		Requests: 60,
		Objects:  objects,
		Mean:     200 * units.Microsecond,
		Mix:      MixPoisson,
		Seed:     seed,
		App:      app.StorageApp(),
		Parser:   app.HostParser,
		Spec:     app.Spec,
	}
}

// parArtifacts is everything one windowed run emits that the
// byte-identity contract covers.
type parArtifacts struct {
	res     *TrafficResult
	metrics []byte // per-shard registries, concatenated in shard order
	events  []trace.Event
	fired   int64 // simulated events fired, summed over the shards' engines
}

func fleetMetricsJSON(t *testing.T, a *Array) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sh := range a.Shards {
		if err := sh.Sys.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// runWindowed builds a fresh fleet, optionally kills the busiest
// primary, and runs the conservative-window executor at the given slot
// count with a tracer attached.
func runWindowed(t *testing.T, slots int, kill bool, seed int64) parArtifacts {
	t.Helper()
	const objects = 8
	a, app := parFleet(t, 4, 2, objects)
	tr := trace.New(0)
	a.AttachTracer(tr)
	if kill {
		// The busiest primary, like the E17 loss point: the shard whose
		// loss degrades the most traffic.
		counts := make([]int, len(a.Shards))
		for i := 0; i < objects; i++ {
			counts[a.Place(ObjectName(i))[0]]++
		}
		best := 0
		for i, c := range counts {
			if c > counts[best] {
				best = i
			}
		}
		a.KillShard(best)
	}
	res, err := RunTrafficParallel(a, windowTraffic(app, objects, seed), slots)
	if err != nil {
		t.Fatal(err)
	}
	var fired int64
	for _, sh := range a.Shards {
		fired += sh.Sys.Engine.Fired()
	}
	return parArtifacts{res: res, metrics: fleetMetricsJSON(t, a), events: tr.Events(), fired: fired}
}

func diffArtifacts(t *testing.T, label string, want, got parArtifacts) {
	t.Helper()
	if !reflect.DeepEqual(want.res, got.res) {
		t.Errorf("%s: traffic result diverged:\n%+v\nvs\n%+v", label, want.res, got.res)
	}
	if !bytes.Equal(want.metrics, got.metrics) {
		t.Errorf("%s: fleet metrics JSON diverged (%d vs %d bytes)", label, len(want.metrics), len(got.metrics))
	}
	if !reflect.DeepEqual(want.events, got.events) {
		t.Errorf("%s: trace diverged: %d vs %d events", label, len(want.events), len(got.events))
	}
}

// TestLookaheadPositive pins the windowing precondition: the retry
// backoff budget that funds the conservative window is provably nonzero
// (3 ms under the default policy: 1 ms + 2 ms before the final attempt).
func TestLookaheadPositive(t *testing.T) {
	if l := ReplicaLookahead(); l != 3*units.Millisecond {
		t.Fatalf("ReplicaLookahead = %v, want 3ms from the default retry policy", l)
	}
}

// runInline is the reference serving loop the windowed executor is
// checked against: one goroutine issues the whole schedule in global
// arrival order, interleaving shards, and a degraded request's replica
// re-fetch runs on the holder the moment it is needed.
func runInline(a *Array, tc TrafficConfig) (*TrafficResult, error) {
	classes, err := checkTraffic(&tc)
	if err != nil {
		return nil, err
	}
	res := newTrafficResult(a, &tc, classes)
	reqs := buildSchedule(a, &tc, classes)
	inflight := make([][]units.Time, len(a.Shards))
	refs := map[string][]byte{}
	for _, rq := range reqs {
		if err := serveOne(a, &tc, classes, rq, res, &inflight[rq.primary], refs); err != nil {
			return nil, err
		}
	}
	res.FairnessTenants = jainPositive(res.TenantServed)
	res.FairnessShards = jain(res.ShardServed)
	return res, nil
}

// TestParallelTrafficMatchesInlineWhenHealthy: with no degraded-mode
// traffic there are no cross-shard edges at all, and the windowed
// executor must reproduce the inline reference's results and per-shard
// metrics exactly — the two orders only diverge on contended re-fetch
// ordering, never on independent serving.
func TestParallelTrafficMatchesInlineWhenHealthy(t *testing.T) {
	const objects = 8
	a, app := parFleet(t, 4, 2, objects)
	inline, err := runInline(a, windowTraffic(app, objects, 7))
	if err != nil {
		t.Fatal(err)
	}
	inlineJSON := fleetMetricsJSON(t, a)

	b, _ := parFleet(t, 4, 2, objects)
	windowed, err := RunTrafficParallel(b, windowTraffic(app, objects, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	// The windowed run carries protocol accounting the inline reference
	// never populates; with no degraded traffic nothing may have parked.
	if windowed.Windows == 0 || windowed.Rounds == 0 {
		t.Fatalf("windowed run recorded no protocol activity: %d windows, %d rounds", windowed.Windows, windowed.Rounds)
	}
	if windowed.DeferredFetches != 0 || windowed.EarlyFetches != 0 {
		t.Fatalf("healthy run deferred %d fetches (%d early); there are no cross-shard edges to defer",
			windowed.DeferredFetches, windowed.EarlyFetches)
	}
	scrubbed := *windowed
	scrubbed.Windows, scrubbed.Rounds = 0, 0
	if !reflect.DeepEqual(inline, &scrubbed) {
		t.Fatalf("healthy windowed run diverged from inline:\n%+v\nvs\n%+v", inline, windowed)
	}
	if got := fleetMetricsJSON(t, b); !bytes.Equal(inlineJSON, got) {
		t.Fatal("healthy windowed run's shard metrics diverged from inline")
	}
	if windowed.Admitted == 0 {
		t.Fatal("traffic admitted nothing")
	}
}

// TestParallelTrafficByteIdenticalAcrossSlots is the core contract at
// fleet level: the same run at 1, 4, and 8 worker slots produces
// identical results, identical per-shard metrics JSON, and an identical
// adopted trace, span IDs included, and fires the same number of
// simulated events. The CI race battery runs this under -race, so the
// slot>1 runs also prove the executor free of data races.
func TestParallelTrafficByteIdenticalAcrossSlots(t *testing.T) {
	want := runWindowed(t, 1, false, 7)
	if want.res.Admitted == 0 {
		t.Fatal("traffic admitted nothing")
	}
	for _, slots := range []int{4, 8} {
		got := runWindowed(t, slots, false, 7)
		diffArtifacts(t, fmt.Sprintf("slots=%d", slots), want, got)
		if got.fired != want.fired {
			t.Errorf("slots=%d: engines fired %d events, want %d", slots, got.fired, want.fired)
		}
	}
}

// TestKillShardDuringWindow is the loss battery: a whole shard dies
// before traffic, so every request routed to it burns the retry budget
// and parks a replica re-fetch at a window barrier — across multiple
// windows, at slot counts 1/4/8, everything must stay
// byte-identical, and the degraded path must actually have been taken.
func TestKillShardDuringWindow(t *testing.T) {
	want := runWindowed(t, 1, true, 7)
	if got := want.res.Path[core.PathReplicaFallback]; got == 0 {
		t.Fatal("shard loss produced no replica-fallback serves; the battery is vacuous")
	}
	if want.res.DeferredFetches == 0 {
		t.Fatal("no replica fetch parked at a window barrier; the battery is vacuous")
	}
	// The schedule must span multiple conservative windows, or "across a
	// window boundary" is untested.
	if span := want.res.Horizon; span < 2*units.Time(ReplicaLookahead()) {
		t.Fatalf("traffic horizon %v inside two %v windows; widen the schedule", span, ReplicaLookahead())
	}
	for _, slots := range []int{4, 8} {
		got := runWindowed(t, slots, true, 7)
		diffArtifacts(t, fmt.Sprintf("slots=%d", slots), want, got)
	}
}

// TestParallelTrafficRestoresAndReuses: the executor must leave the
// fleet exactly as it found it — replica routers and tracer restored —
// so a reset fleet reruns as if fresh, and a direct request to a killed
// shard after a windowed run still routes its re-fetch through the real
// shardFetcher rather than a leaked parking fetcher.
func TestParallelTrafficRestoresAndReuses(t *testing.T) {
	const objects = 8
	fresh, app := parFleet(t, 3, 2, objects)
	want, err := RunTrafficParallel(fresh, windowTraffic(app, objects, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := fleetMetricsJSON(t, fresh)

	reused, _ := parFleet(t, 3, 2, objects)
	if _, err := RunTrafficParallel(reused, windowTraffic(app, objects, 11), 4); err != nil {
		t.Fatal(err)
	}
	reused.ResetTimers()
	got, err := RunTrafficParallel(reused, windowTraffic(app, objects, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reused fleet diverged from fresh fleet:\n%+v\nvs\n%+v", want, got)
	}
	if gotJSON := fleetMetricsJSON(t, reused); !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("reused fleet metrics differ from a fresh fleet's")
	}

	// Degraded mode outside the executor still works after a windowed
	// run: the real replica router was restored.
	reused.ResetTimers()
	name := ObjectName(0)
	primary := reused.Place(name)[0]
	reused.KillShard(primary)
	sh := reused.Shards[primary]
	f, err := sh.Sys.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := sh.Sys.InvokeStorageApp(0, core.InvokeOptions{
		App:      app.StorageApp(),
		File:     f,
		Fallback: &core.Fallback{Parser: app.HostParser, Spec: app.Spec},
	})
	if err != nil {
		t.Fatalf("direct degraded request after a windowed run failed: %v", err)
	}
	if inv.Path != core.PathReplicaFallback {
		t.Fatalf("served via %v, want %v", inv.Path, core.PathReplicaFallback)
	}
}
