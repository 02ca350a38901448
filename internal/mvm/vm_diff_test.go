// The interpreter-vs-compiled differential battery at the application
// level: every Table I StorageApp, compiled from its real MorphC source,
// streamed through the VM exactly as the SSD firmware streams it
// (windowed Feed, Run to quiescence, drain on every pause), under the
// compiled engine behind Run and the reference interpreter, across
// multiple seeds and window sizes; plus bytecode-heavy microkernels
// (arithmetic, branches, D-SRAM traffic, calls, decimal printing).
// Everything observable must match bit for bit: output bytes, cycles,
// steps, float ops, scan counts, consumed bytes, the state sequence,
// return values, trap text, and the profile histogram, with profiling on
// and off. Package-level edge cases (traps, MaxSteps inside fused pairs,
// random schedules, the loop superinstruction's kernels) live in
// engine_test.go. This is an external test package because apps imports
// mvm; it reaches the interpreter through export_test.go.
package mvm_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
	"morpheus/internal/serial"
	"morpheus/internal/units"
)

// vmRun is everything observable about one streamed VM execution.
type vmRun struct {
	out        []byte
	states     []mvm.State
	cycles     uint64 // Float64bits — compared exactly
	steps      int64
	floatOps   int64
	intScans   int64
	floatScans int64
	consumed   int64
	ret        int64
	trap       string
	profile    string
}

// streamVM drives one VM over input the way ssd.instance.interpretChunk
// does: feed a window, run to quiescence draining as output fills, feed
// the next window when asked. chunk <= 0 feeds everything up front. run
// executes the VM: (*mvm.VM).Run or mvm.RunInterp.
func streamVM(tb testing.TB, prog *mvm.Program, cfg mvm.Config, run func(*mvm.VM) mvm.State, input []byte, chunk int) vmRun {
	tb.Helper()
	vm, err := mvm.New(prog, cfg, mvm.DefaultCostModel())
	if err != nil {
		tb.Fatalf("mvm.New: %v", err)
	}
	var r vmRun
	pos := 0
	if chunk <= 0 {
		if err := vm.Feed(input, true); err != nil {
			tb.Fatalf("feed: %v", err)
		}
		pos = len(input)
	}
	for i := 0; i < 50_000_000; i++ {
		st := run(vm)
		r.states = append(r.states, st)
		switch st {
		case mvm.StateNeedInput:
			if pos >= len(input) {
				tb.Fatal("need-input after the final window")
			}
			n := min(chunk, len(input)-pos)
			if err := vm.Feed(input[pos:pos+n], pos+n >= len(input)); err != nil {
				tb.Fatalf("feed: %v", err)
			}
			pos += n
		case mvm.StateOutputFull, mvm.StateFlushRequested:
			r.out = append(r.out, vm.DrainOutput()...)
		case mvm.StateHalted:
			r.out = append(r.out, vm.DrainOutput()...)
			r.ret = vm.ReturnValue()
			goto done
		case mvm.StateTrapped:
			r.trap = vm.TrapErr().Error()
			goto done
		default:
			tb.Fatalf("unexpected state %v", st)
		}
	}
	tb.Fatal("iteration cap exceeded")
done:
	r.cycles = math.Float64bits(vm.Cycles())
	r.steps = vm.Steps()
	r.floatOps = vm.FloatOps()
	r.intScans, r.floatScans = vm.ScanCounts()
	r.consumed = vm.Consumed()
	r.profile = vm.Profile().String()
	return r
}

// diffEngines streams input through both engines, once with profiling on
// and once with it off whatever cfg.Profile says, diffs each pair of runs,
// and returns the interpreter's profiled run. With profiling off the
// histograms are both absent, so every other field is what is compared.
func diffEngines(t *testing.T, prog *mvm.Program, cfg mvm.Config, input []byte, chunk int) vmRun {
	t.Helper()
	var profiled vmRun
	for _, profile := range []bool{false, true} {
		cfg.Profile = profile
		interp := streamVM(t, prog, cfg, mvm.RunInterp, input, chunk)
		compiled := streamVM(t, prog, cfg, (*mvm.VM).Run, input, chunk)
		diffVMRuns(t, interp, compiled)
		profiled = interp
	}
	return profiled
}

// diffVMRuns fails the test on the first field where the two engines'
// runs disagree.
func diffVMRuns(t *testing.T, interp, compiled vmRun) {
	t.Helper()
	if !bytes.Equal(interp.out, compiled.out) {
		t.Fatalf("output bytes diverge: interp %d bytes, compiled %d bytes", len(interp.out), len(compiled.out))
	}
	if interp.cycles != compiled.cycles {
		t.Fatalf("cycles diverge: interp %x (%g) compiled %x (%g)",
			interp.cycles, math.Float64frombits(interp.cycles),
			compiled.cycles, math.Float64frombits(compiled.cycles))
	}
	if interp.steps != compiled.steps {
		t.Fatalf("steps diverge: %d vs %d", interp.steps, compiled.steps)
	}
	if interp.floatOps != compiled.floatOps {
		t.Fatalf("float ops diverge: %d vs %d", interp.floatOps, compiled.floatOps)
	}
	if interp.intScans != compiled.intScans || interp.floatScans != compiled.floatScans {
		t.Fatalf("scan counts diverge: %d/%d vs %d/%d",
			interp.intScans, interp.floatScans, compiled.intScans, compiled.floatScans)
	}
	if interp.consumed != compiled.consumed {
		t.Fatalf("consumed diverges: %d vs %d", interp.consumed, compiled.consumed)
	}
	if interp.ret != compiled.ret {
		t.Fatalf("return value diverges: %d vs %d", interp.ret, compiled.ret)
	}
	if interp.trap != compiled.trap {
		t.Fatalf("trap diverges: %q vs %q", interp.trap, compiled.trap)
	}
	if len(interp.states) != len(compiled.states) {
		t.Fatalf("state sequences diverge in length: %d vs %d", len(interp.states), len(compiled.states))
	}
	for i := range interp.states {
		if interp.states[i] != compiled.states[i] {
			t.Fatalf("state sequence diverges at step %d: %v vs %v", i, interp.states[i], compiled.states[i])
		}
	}
	if interp.profile != compiled.profile {
		t.Fatalf("profile histograms diverge:\ninterp:\n%s\ncompiled:\n%s", interp.profile, compiled.profile)
	}
}

// TestEngineDifferentialApps proves the compiled engine bit-identical to
// the interpreter on every Table I StorageApp across seeds and window
// sizes.
func TestEngineDifferentialApps(t *testing.T) {
	seeds := []int64{20160618, 7, 424242}
	chunks := []int{0, 512, 4096}
	for _, app := range apps.All() {
		prog, err := morphc.Compile(app.StorageSrc, app.Entry)
		if err != nil {
			t.Fatalf("%s: compile: %v", app.Name, err)
		}
		// Every single-integer-field app runs the Figure-7 loop, which
		// must get the loop superinstruction.
		if intApp := len(app.Fields) == 1 && !app.Fields[0].IsFloat(); intApp != (len(mvm.LoopHeads(prog)) == 1) {
			t.Fatalf("%s: loop superinstruction heads %v", app.Name, mvm.LoopHeads(prog))
		}
		for _, seed := range seeds {
			shards := app.Gen(24*units.KiB, 1, seed)
			input := shards[0]
			for _, chunk := range chunks {
				t.Run(fmt.Sprintf("%s/seed%d/chunk%d", app.Name, seed, chunk), func(t *testing.T) {
					interp := diffEngines(t, prog, mvm.DefaultConfig(), input, chunk)
					if interp.trap != "" {
						t.Fatalf("app trapped: %s", interp.trap)
					}
					if len(interp.out) == 0 {
						t.Fatal("app produced no output")
					}
				})
			}
		}
	}
}

// TestEngineDifferentialOptLevels repeats the battery on the optimizer's
// output (the SSD path compiles at the default level, but fused-pair
// selection must hold at every optimization level the toolchain offers).
func TestEngineDifferentialOptLevels(t *testing.T) {
	for _, app := range apps.All() {
		for _, lvl := range []morphc.OptLevel{morphc.O0, morphc.O1} {
			prog, err := morphc.CompileWithOptions(app.StorageSrc, app.Entry, lvl)
			if err != nil {
				t.Fatalf("%s: compile O%d: %v", app.Name, lvl, err)
			}
			input := app.Gen(8*units.KiB, 1, 99)[0]
			diffEngines(t, prog, mvm.DefaultConfig(), input, 1024)
		}
	}
}

// The microkernels are pure bytecode (no input stream): tight loops of
// arithmetic, data-dependent branches, D-SRAM stores and loads, calls,
// and decimal printing, each long enough to cross many output flushes.
const microArithSrc = `
.name arith
	push 0
	store 0
	push 0
	store 1
loop:
	load 0
	push 200000
	ge
	jnz done
	load 1
	load 0
	push 3
	mul
	push 7
	xor
	add
	store 1
	load 0
	push 1
	add
	store 0
	jmp loop
done:
	load 1
	halt
`

const microBranchSrc = `
.name branchy
	push 0
	store 0
	push 0
	store 1
loop:
	load 0
	push 150000
	ge
	jnz done
	load 0
	push 3
	mod
	jz mul3
	load 0
	push 1
	and
	jnz odd
	load 1
	push 2
	add
	store 1
	jmp next
mul3:
	load 1
	push 5
	add
	store 1
	jmp next
odd:
	load 1
	push 1
	sub
	store 1
next:
	load 0
	push 1
	add
	store 0
	jmp loop
done:
	load 1
	halt
`

const microSRAMSrc = `
.name sramloop
	push 0
	store 0
loop:
	load 0
	push 150000
	ge
	jnz done
	load 0
	push 1023
	and
	push 8
	mul
	store 2
	load 2
	load 0
	st64
	load 2
	ld64
	pop
	load 0
	push 1
	add
	store 0
	jmp loop
done:
	halt
`

const microCallSrc = `
.name calls
	push 0
	store 0
	push 0
	store 1
loop:
	load 0
	push 80000
	ge
	jnz done
	load 0
	call fn
	load 1
	add
	store 1
	load 0
	push 1
	add
	store 0
	jmp loop
done:
	load 1
	halt
fn:
	push 3
	mul
	push 11
	mod
	ret
`

const microPrintSrc = `
.name printer
	push 0
	store 0
loop:
	load 0
	push 40000
	ge
	jnz done
	load 0
	sys print_int
	push 44
	sys print_char
	load 0
	push 1
	add
	store 0
	jmp loop
done:
	halt
`

// microStoreJmpSrc lands jumps on `store store` and `store jmp` pairs.
// The compiler fuses those pairs, but straight-line code always enters
// them through a longer superinstruction that ends on the store, so only
// a jump target or a resume point runs the pair handlers themselves.
const microStoreJmpSrc = `
.name storejmp
	push 0
	store 0
	push 0
	store 1
loop:
	load 0
	push 60000
	ge
	jnz done
	load 0
	push 1
	add
	load 1
	load 0
	add
	load 0
	push 1
	and
	jnz odd
	jmp pair
odd:
	jmp single
pair:
	store 1
	store 0
	jmp loop
single:
	store 1
	jmp bump
bump:
	store 0
	jmp loop
done:
	load 1
	halt
`

// TestEngineDifferentialMicrokernels extends the battery to bytecode the
// MorphC code generator rarely emits in these shapes, so the fused
// handlers for arithmetic chains, branches, D-SRAM access, calls,
// printing and jump-entered store pairs are each checked against the
// interpreter.
func TestEngineDifferentialMicrokernels(t *testing.T) {
	for _, k := range []struct{ name, src string }{
		{"arith", microArithSrc},
		{"branch", microBranchSrc},
		{"sram", microSRAMSrc},
		{"call", microCallSrc},
		{"print", microPrintSrc},
		{"store-jmp", microStoreJmpSrc},
	} {
		t.Run(k.name, func(t *testing.T) {
			prog, err := mvm.Assemble(k.src)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			cfg := mvm.DefaultConfig()
			// Every kernel halts within ~4M steps; the limit turns a
			// fault that loops forever into a divergence.
			cfg.MaxSteps = 20_000_000
			interp := diffEngines(t, prog, cfg, nil, 0)
			if interp.trap != "" {
				t.Fatalf("kernel trapped: %s", interp.trap)
			}
		})
	}
}

// fig7Programs compiles the int32 and int64 Figure-7 StorageApps from the
// apps sources, keyed by the field kind each emits.
func fig7Programs(tb testing.TB) map[serial.FieldKind]*mvm.Program {
	progs := map[serial.FieldKind]*mvm.Program{}
	for _, app := range apps.All() {
		if len(app.Fields) != 1 || app.Fields[0].IsFloat() || progs[app.Fields[0]] != nil {
			continue
		}
		prog, err := morphc.Compile(app.StorageSrc, app.Entry)
		if err != nil {
			tb.Fatalf("%s: compile: %v", app.Name, err)
		}
		progs[app.Fields[0]] = prog
	}
	if len(progs) != 2 {
		tb.Fatalf("found %d Figure-7 StorageApps, want int32 and int64", len(progs))
	}
	return progs
}

// FuzzStorageAppDifferential feeds arbitrary bytes, in windows of an
// arbitrary size, to the int32 and int64 Figure-7 StorageApps. The
// compiled engine must match the interpreter bit for bit. The host parser
// is the second oracle: where serial.ParseTokens accepts the input, the
// device objects must equal its output; where it rejects the input, the
// VM must trap. The two accept the same inputs: both split tokens on the
// same separator set and both define a valid token as one
// strconv.ParseInt accepts, and int32 objects are the same truncation of
// the int64 value on both sides.
func FuzzStorageAppDifferential(f *testing.F) {
	progs := fig7Programs(f)
	for _, seed := range []struct {
		in     string
		window uint16
	}{
		{"1 2 3\n", 0},
		{"-17,+4\t0007\r\n99", 1},
		{"123456789012345678 1234567890123456789 -9223372036854775808", 5},
		{"12 9223372036854775808 3", 3},
		{"1 - 2", 2},
		{"4 5x 6", 7},
		{"   ", 1},
		{"", 0},
	} {
		f.Add([]byte(seed.in), seed.window)
	}
	f.Fuzz(func(t *testing.T, data []byte, window uint16) {
		// A token spanning many small windows is re-scanned on every Feed,
		// so a run costs up to len(data)^2; the bound keeps each run fast.
		if len(data) > 4<<10 {
			t.Skip()
		}
		chunk := 0 // feeds everything at once
		if len(data) > 0 {
			chunk = int(window) % (len(data) + 1)
		}
		for kind, prog := range progs {
			cfg := mvm.DefaultConfig()
			interp := streamVM(t, prog, cfg, mvm.RunInterp, data, chunk)
			compiled := streamVM(t, prog, cfg, (*mvm.VM).Run, data, chunk)
			diffVMRuns(t, interp, compiled)
			want, err := serial.ParseTokens(data, kind)
			switch {
			case err != nil && interp.trap == "":
				t.Fatalf("%v: ParseTokens rejects the input (%v), the VM does not trap", kind, err)
			case err == nil && interp.trap != "":
				t.Fatalf("%v: ParseTokens accepts the input, the VM traps: %s", kind, interp.trap)
			case err == nil && !bytes.Equal(interp.out, want):
				t.Fatalf("%v: device objects %x != host objects %x", kind, interp.out, want)
			}
		}
	})
}
