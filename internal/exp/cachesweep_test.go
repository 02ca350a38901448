package exp

import (
	"fmt"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/stats"
)

func TestCachesweepShape(t *testing.T) {
	r, err := RunCachesweep(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := len(cachesweepSizes) * len(cachesweepRereads)
	if len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}
	var big *CachesweepRow
	for i := range r.Rows {
		row := &r.Rows[i]
		// The same-bytes overwrite must invalidate whatever the stream
		// cached over the touched extent — wherever the cache is big
		// enough that those entries can survive until the write. (The
		// thrashing 256KiB points may legitimately have evicted them
		// already.)
		if row.CacheSize > cachesweepSizes[0] && row.Invalidations < 1 {
			t.Errorf("cache=%v rereads=%d: invalidations = %d, want >= 1",
				row.CacheSize, row.Rereads, row.Invalidations)
		}
		if row.Speedup < 0.95 {
			t.Errorf("cache=%v rereads=%d: speedup %.2f — the cache must never slow the run down",
				row.CacheSize, row.Rereads, row.Speedup)
		}
		if row.CacheSize == cachesweepSizes[len(cachesweepSizes)-1] &&
			row.Rereads == cachesweepRereads[len(cachesweepRereads)-1] {
			big = row
		}
	}
	// The acceptance point: a big cache over hot re-reads must show a
	// clear simulated win at a non-trivial hit rate.
	if big == nil {
		t.Fatal("largest grid point missing")
	}
	if big.Speedup < 1.2 {
		t.Fatalf("64MiB x %d re-reads: speedup %.2f, want >= 1.2", big.Rereads, big.Speedup)
	}
	if big.HitRate < 0.3 {
		t.Fatalf("64MiB x %d re-reads: hit rate %.2f, want a hot cache", big.Rereads, big.HitRate)
	}
	// The undersized cache must thrash: evictions happen, and the hit
	// rate stays below the big cache's.
	small := r.Rows[0]
	if small.Evictions < 1 {
		t.Errorf("smallest cache: evictions = %d, want LRU pressure", small.Evictions)
	}
	if small.HitRate >= big.HitRate {
		t.Errorf("hit rate must grow with cache size: %.2f (small) vs %.2f (big)",
			small.HitRate, big.HitRate)
	}
}

// TestCacheDifferentialAcrossApps is the functional-identity battery: for
// every application and seed, a cache-enabled device must produce
// bit-identical object streams to the uncached one — including on the
// second pass, where the cache actually serves hits.
func TestCacheDifferentialAcrossApps(t *testing.T) {
	seeds := []int64{20160618, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, app := range apps.All() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", app.Name, seed), func(t *testing.T) {
				o := testOptions()
				o.Seed = seed
				shards := app.Generate(o.scale(), o.Seed)
				uncached, _, err := runApp(app, variant{mode: apps.ModeMorpheus}, o, shards)
				if err != nil {
					t.Fatal(err)
				}
				oc := o
				oc.Mutate = func(cfg *core.SystemConfig) { cfg.SSD.ObjectCache = true }
				sys, err := buildSystem(oc, app.UsesGPU)
				if err != nil {
					t.Fatal(err)
				}
				files, err := apps.StageShards(sys, app, shards)
				if err != nil {
					t.Fatal(err)
				}
				sys.ResetTimers()
				cold, err := apps.Run(sys, app, files, apps.ModeMorpheus)
				if err != nil {
					t.Fatal(err)
				}
				// Timers reset between measured passes; the object cache
				// (like the flash contents) deliberately survives the
				// boundary.
				sys.ResetTimers()
				warm, err := apps.Run(sys, app, files, apps.ModeMorpheus)
				if err != nil {
					t.Fatal(err)
				}
				if err := apps.VerifyObjects(uncached, cold); err != nil {
					t.Fatalf("cold cached run diverged: %v", err)
				}
				if err := apps.VerifyObjects(uncached, warm); err != nil {
					t.Fatalf("warm cached run diverged: %v", err)
				}
				if hits := sys.Counters.Get(stats.SSDCacheHits); hits < 1 {
					t.Fatalf("hits = %d: the warm run never exercised the cache", hits)
				}
			})
		}
	}
}
