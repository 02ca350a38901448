package exp

import (
	"bytes"
	"reflect"
	"testing"

	"morpheus/internal/sim"
)

// shardParArray is the E17 slice the shard-executor battery runs: a
// single 8-shard point (healthy + loss) with enough traffic that the
// loss point's degraded re-fetches cross several conservative windows.
func shardParArray(o Options) (tabler, error) {
	return RunArray(o, ArraySweep{
		Shards: 8, Replicas: 2,
		Tenants: 64, Requests: 48, Objects: 8,
	})
}

// TestShardParallelMatches is the experiment-level arm of the
// conservative-window contract: E17 run with ShardParallel pinned to 1,
// 4, and 8, or left at 0 (sized by the worker budget), renders the same
// table, the same aggregate metrics JSON, and the same adopted trace
// (span IDs included) — under the point fan-out too, so the shared
// worker budget is exercised with both layers live.
func TestShardParallelMatches(t *testing.T) {
	o := testOptions()
	o.Scale = 1.0 / 8192

	o.Parallel = 1
	o.ShardParallel = 1
	wantTable, wantJSON, wantEvents := observedRun(t, shardParArray, o)
	for _, sp := range []int{0, 4, 8} {
		o.Parallel = 4
		o.ShardParallel = sp
		gotTable, gotJSON, gotEvents := observedRun(t, shardParArray, o)
		if gotTable != wantTable {
			t.Errorf("ShardParallel=%d table diverged:\n%s\nvs:\n%s", sp, wantTable, gotTable)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("ShardParallel=%d metrics JSON diverged", sp)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Errorf("ShardParallel=%d trace diverged: %d vs %d events",
				sp, len(wantEvents), len(gotEvents))
		}
	}
}

// TestWorkerBudgetBoundsSweep is the oversubscription regression test:
// with an injected 4-token budget, an 8-way point fan-out whose points
// each ask for 8-way shard parallelism (or for the whole budget) must
// never hold more than 4 tokens at once — points × shards stay inside
// the one global bound.
func TestWorkerBudgetBoundsSweep(t *testing.T) {
	for _, sp := range []int{8, 0} {
		o := testOptions()
		o.Scale = 1.0 / 8192
		o.Parallel = 8
		o.ShardParallel = sp
		o.budget = sim.NewWorkerBudget(4)
		r, err := RunArray(o, ArraySweep{Tenants: 64, Requests: 48, Objects: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) == 0 {
			t.Fatal("sweep produced no rows")
		}
		if peak := o.budget.Peak(); peak == 0 || peak > 4 {
			t.Fatalf("ShardParallel %d: worker budget peak = %d, want 1..4", sp, peak)
		}
	}
}
