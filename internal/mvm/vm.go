package mvm

import (
	"fmt"
	"math"
)

// State is the VM's run state after a Run call.
type State int

// Run states.
const (
	// StateRunnable means the VM has not started or was paused externally.
	StateRunnable State = iota
	// StateNeedInput means the app tried to read past the current input
	// window and the window is not final; the firmware must Feed more.
	StateNeedInput
	// StateOutputFull means the output buffer reached the flush threshold;
	// the firmware must DrainOutput (DMA the objects out) and resume.
	StateOutputFull
	// StateFlushRequested means the app called ms_memcpy explicitly.
	StateFlushRequested
	// StateHalted means the app finished; ReturnValue is valid.
	StateHalted
	// StateTrapped means the app faulted; TrapErr describes why.
	StateTrapped
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateNeedInput:
		return "need-input"
	case StateOutputFull:
		return "output-full"
	case StateFlushRequested:
		return "flush-requested"
	case StateHalted:
		return "halted"
	case StateTrapped:
		return "trapped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config sizes the embedded-core memories visible to a StorageApp.
type Config struct {
	// DSRAMSize bounds the app's working set: static arrays + the input
	// window + the output buffer must fit (the paper: "due to the
	// capacity of D-SRAM ... the current implementation restricts the
	// maximum working set size of a single StorageApp").
	DSRAMSize int
	// OutputFlushThreshold pauses the app for a DMA drain when this many
	// output bytes are buffered.
	OutputFlushThreshold int
	// StackLimit bounds the operand stack.
	StackLimit int
	// MaxSteps aborts runaway programs (0 = unlimited).
	MaxSteps int64
	// Profile collects a per-opcode execution histogram (small runtime
	// overhead; off by default).
	Profile bool
}

// DefaultConfig matches a controller-class core: 512 KiB D-SRAM with a
// 64 KiB output flush unit.
func DefaultConfig() Config {
	return Config{
		DSRAMSize:            512 << 10,
		OutputFlushThreshold: 64 << 10,
		StackLimit:           4096,
		MaxSteps:             0,
	}
}

type frame struct {
	retPC  int
	locals []int64
}

// VM is one StorageApp instance executing on an embedded core.
type VM struct {
	prog *Program
	cfg  Config
	cost CostModel

	pc      int
	stack   []int64
	frames  []frame
	globals []int64
	sram    []byte

	args []int64

	input      []byte
	inputPos   int
	inputFinal bool
	consumed   int64 // total input bytes consumed over the app's lifetime

	output []byte

	cycles     float64
	steps      int64
	state      State
	retVal     int64
	trapErr    error
	floatOps   int64
	intScans   int64
	floatScans int64
	profile    *Profile

	// code is the closure-compiled form of prog.
	code *compiledCode
	// stepLimit is cfg.MaxSteps with 0 mapped to MaxInt64, so the
	// per-instruction gate is a single compare.
	stepLimit int64
}

// NumLocals is the fixed local-slot count per frame; the compiler enforces
// it.
const NumLocals = 64

// New returns a VM ready to execute prog.
func New(prog *Program, cfg Config, cost CostModel) (*VM, error) {
	if prog.SRAMStatic > cfg.DSRAMSize {
		return nil, fmt.Errorf("mvm: program statically allocates %d bytes, D-SRAM is %d", prog.SRAMStatic, cfg.DSRAMSize)
	}
	vm := &VM{
		prog:    prog,
		cfg:     cfg,
		cost:    cost,
		globals: make([]int64, prog.NumGlobals),
		frames:  []frame{{retPC: -1, locals: make([]int64, NumLocals)}},
	}
	if cfg.Profile {
		vm.profile = newProfile()
	}
	vm.stepLimit = cfg.MaxSteps
	if vm.stepLimit <= 0 {
		vm.stepLimit = math.MaxInt64
	}
	vm.code = compileProgram(prog)
	return vm, nil
}

// dsram returns the D-SRAM buffer, allocating it on the first load or
// store: most StorageApps never address D-SRAM, and a zeroed
// cfg.DSRAMSize buffer per MINIT would dominate their allocation.
// Callers bounds-check against cfg.DSRAMSize first.
func (vm *VM) dsram() []byte {
	if vm.sram == nil {
		vm.sram = make([]byte, vm.cfg.DSRAMSize)
	}
	return vm.sram
}

// SetArgs sets the host-supplied argument vector (the MINIT argument
// block).
func (vm *VM) SetArgs(args []int64) { vm.args = args }

// Feed appends stream bytes to the input window. final marks the last
// chunk of the stream. Consumed prefix bytes are compacted away so the
// window occupies bounded D-SRAM.
func (vm *VM) Feed(data []byte, final bool) error {
	if vm.inputPos > 0 {
		// Compact by copying the unconsumed suffix down in place. Re-slicing
		// (input = input[inputPos:]) would permanently forfeit the consumed
		// prefix's capacity, forcing append to regrow the allocation on
		// every window.
		n := copy(vm.input, vm.input[vm.inputPos:])
		vm.input = vm.input[:n]
		vm.inputPos = 0
	}
	vm.input = append(vm.input, data...)
	vm.inputFinal = final
	if used := len(vm.input) + len(vm.output) + vm.prog.SRAMStatic; used > vm.cfg.DSRAMSize {
		vm.state = StateTrapped
		vm.trapErr = fmt.Errorf("mvm: D-SRAM overflow: window %d + output %d + static %d > %d",
			len(vm.input), len(vm.output), vm.prog.SRAMStatic, vm.cfg.DSRAMSize)
		return vm.trapErr
	}
	if vm.state == StateNeedInput {
		vm.state = StateRunnable
	}
	return nil
}

// DrainOutput returns and clears the buffered output bytes (the firmware
// DMAs these to the command's destination address). The returned slice is
// owned by the caller and never aliased by later emission.
func (vm *VM) DrainOutput() []byte {
	out := vm.output
	// The drained bytes belong to the caller, so the buffer cannot be
	// reused in place; start the next accumulation at the high-water
	// capacity so per-emit appends stop regrowing from zero every drain
	// cycle.
	vm.output = make([]byte, 0, cap(out))
	if vm.state == StateOutputFull || vm.state == StateFlushRequested {
		vm.state = StateRunnable
	}
	return out
}

// Remaining returns the unconsumed bytes still in the input window. The
// sampled-execution mode uses this to hand the partial trailing token over
// to the native continuation when it stops interpreting.
func (vm *VM) Remaining() []byte {
	out := make([]byte, len(vm.input)-vm.inputPos)
	copy(out, vm.input[vm.inputPos:])
	return out
}

// Cycles returns the accumulated embedded-core cycles.
func (vm *VM) Cycles() float64 { return vm.cycles }

// Steps returns the number of bytecode instructions executed.
func (vm *VM) Steps() int64 { return vm.steps }

// Consumed returns total input bytes the app has consumed.
func (vm *VM) Consumed() int64 { return vm.consumed }

// State returns the current run state.
func (vm *VM) State() State { return vm.state }

// ReturnValue returns the app's return value (valid once halted).
func (vm *VM) ReturnValue() int64 { return vm.retVal }

// TrapErr returns the fault description if the app trapped.
func (vm *VM) TrapErr() error { return vm.trapErr }

// FloatOps returns the count of software-emulated float operations.
func (vm *VM) FloatOps() int64 { return vm.floatOps }

// ScanCounts returns how many int and float tokens were scanned.
func (vm *VM) ScanCounts() (ints, floats int64) { return vm.intScans, vm.floatScans }

func (vm *VM) push(v int64) error {
	if len(vm.stack) >= vm.cfg.StackLimit {
		return fmt.Errorf("mvm: operand stack overflow at pc=%d", vm.pc)
	}
	vm.stack = append(vm.stack, v)
	return nil
}

func (vm *VM) pop() (int64, error) {
	if len(vm.stack) == 0 {
		return 0, fmt.Errorf("mvm: operand stack underflow at pc=%d", vm.pc)
	}
	v := vm.stack[len(vm.stack)-1]
	vm.stack = vm.stack[:len(vm.stack)-1]
	return v, nil
}

// pushFrame pushes a fresh call frame. Frames popped by ret leave their
// locals slices in the slice's backing array, so re-entering that depth
// zeroes the retained slice instead of allocating a new one — a frame is
// 512 bytes, and call-heavy apps would otherwise allocate it on every
// call.
func (vm *VM) pushFrame(retPC int) {
	if n := len(vm.frames); n < cap(vm.frames) {
		vm.frames = vm.frames[:n+1]
		f := &vm.frames[n]
		f.retPC = retPC
		if f.locals == nil {
			f.locals = make([]int64, NumLocals)
			return
		}
		for i := range f.locals {
			f.locals[i] = 0
		}
		return
	}
	vm.frames = append(vm.frames, frame{retPC: retPC, locals: make([]int64, NumLocals)})
}

func (vm *VM) trap(format string, args ...any) State {
	vm.state = StateTrapped
	vm.trapErr = fmt.Errorf(format, args...)
	return vm.state
}

// Run executes until the app halts, traps, needs input, or fills its
// output buffer. It may be called repeatedly; intermediate states are
// resumable. Execution goes through the closure-compiled form of the
// program (compile.go); the package tests keep the reference interpreter
// as its differential oracle.
func (vm *VM) Run() State {
	if vm.state == StateHalted || vm.state == StateTrapped {
		return vm.state
	}
	vm.state = StateRunnable
	return vm.runCompiled()
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func intBinop(op Op, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, fmt.Errorf("mvm: integer divide by zero")
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return 0, fmt.Errorf("mvm: integer modulo by zero")
		}
		return a % b, nil
	case OpAnd:
		return a & b, nil
	case OpOr:
		return a | b, nil
	case OpXor:
		return a ^ b, nil
	case OpShl:
		return a << uint64(b&63), nil
	case OpShr:
		return a >> uint64(b&63), nil
	case OpEq:
		return boolToInt(a == b), nil
	case OpNe:
		return boolToInt(a != b), nil
	case OpLt:
		return boolToInt(a < b), nil
	case OpLe:
		return boolToInt(a <= b), nil
	case OpGt:
		return boolToInt(a > b), nil
	case OpGe:
		return boolToInt(a >= b), nil
	}
	return 0, fmt.Errorf("mvm: not an int binop: %d", op)
}
