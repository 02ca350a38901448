package core

import "testing"

// TestEngineOverflowOnRealWorkload proves the regime the high-event-count
// determinism row (internal/exp fig8-hi) relies on: a millisecond-scale
// StorageApp invocation pushes the discrete-event clock far past the time
// wheel's ~1.07 ms horizon, so command dispatch and interrupt delivery
// exercise the overflow/rebase path — not just the in-window buckets —
// under the byte-identity checks.
func TestEngineOverflowOnRealWorkload(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.SSD.SampledExecution = true
		c.WithGPU = false
	})
	data, _ := testInput((2<<20)/8, 9)
	f, err := sys.WriteFile("ints.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	inv, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1 << 30 // wheel span in ps: 64^5
	if inv.Done < horizon {
		t.Fatalf("invocation finished at %v, inside the wheel horizon — workload too small to prove overflow", inv.Done)
	}
	if fired := sys.Engine.Fired(); fired == 0 {
		t.Fatal("no events fired: the invocation did not run on the engine")
	}
	if over := sys.Engine.Overflowed(); over == 0 {
		t.Fatal("no event ever crossed the wheel horizon: overflow/rebase path untested by this workload")
	}
}

// TestEngineResetCoversPendingEvents: ResetTimers is the setup/measurement
// boundary; interrupt events a setup phase left undelivered must not leak
// into the measured run.
func TestEngineResetCoversPendingEvents(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<12, 3)
	if _, err := sys.WriteFile("ints.txt", data); err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	if got := sys.Engine.Pending(); got != 0 {
		t.Fatalf("pending events survived ResetTimers: %d", got)
	}
	if sys.Engine.Fired() != 0 || sys.Engine.Clock().Now() != 0 {
		t.Fatalf("engine not rewound: fired=%d now=%v", sys.Engine.Fired(), sys.Engine.Clock().Now())
	}
}
