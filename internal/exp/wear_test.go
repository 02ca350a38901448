package exp

import (
	"reflect"
	"testing"
)

func TestWearSweepShape(t *testing.T) {
	r, err := RunWearSweep(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Table().String())
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.WriteAmplification < 1 {
			t.Fatalf("WA %v < 1 is impossible", row.WriteAmplification)
		}
		if i > 0 && row.WriteAmplification > r.Rows[i-1].WriteAmplification+0.01 {
			t.Fatalf("WA must fall with overprovisioning: %v", r.Rows)
		}
	}
	if first, last := r.Rows[0].WriteAmplification, r.Rows[len(r.Rows)-1].WriteAmplification; first <= last+0.1 {
		t.Fatalf("WA at 7%% OP (%v) should clearly exceed WA at 40%% (%v)", first, last)
	}
}

// TestWearSweepDeterministic runs the sweep twice: GC victim choice must
// not depend on map iteration order.
func TestWearSweepDeterministic(t *testing.T) {
	a, err := RunWearSweep(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b, err := RunWearSweep(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Fatalf("wear sweep differs between runs:\n%v\n%v", a.Rows, b.Rows)
		}
	}
}
