package exp

import (
	"reflect"
	"testing"

	"morpheus/internal/apps"
)

// TestSharedShardsMatchFreshStage checks that running every mode of a
// point on one generated dataset gives the same reports as generating
// and staging the dataset afresh for each mode.
func TestSharedShardsMatchFreshStage(t *testing.T) {
	o := testOptions()
	for _, name := range []string{"bfs", "spmv"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		modes := []apps.Mode{apps.ModeBaseline, apps.ModeMorpheus}
		if app.UsesGPU {
			modes = append(modes, apps.ModeMorpheusP2P)
		}
		shards := app.Generate(o.scale(), o.Seed)
		for _, mode := range modes {
			shared, _, err := runApp(app, variant{mode: mode}, o, shards)
			if err != nil {
				t.Fatalf("%s %v shared: %v", name, mode, err)
			}
			sys, err := buildSystem(o, app.UsesGPU)
			if err != nil {
				t.Fatal(err)
			}
			files, _, err := apps.Stage(sys, app, o.scale(), o.Seed)
			if err != nil {
				t.Fatal(err)
			}
			sys.ResetTimers()
			fresh, err := apps.Run(sys, app, files, mode)
			if err != nil {
				t.Fatalf("%s %v fresh: %v", name, mode, err)
			}
			if !reflect.DeepEqual(shared, fresh) {
				t.Fatalf("%s %v: report on shared shards differs from a fresh Stage", name, mode)
			}
		}
	}
}
