package mvm

import (
	"encoding/binary"
	"math"
	"strconv"
)

// sys executes one device-library call. It returns StateRunnable when the
// VM may continue, or a pause/terminal state. Library routines are charged
// per byte consumed/produced plus a fixed dispatch cost, reflecting that
// they are native firmware rather than interpreted bytecode.
func (vm *VM) sys(b Builtin) State {
	switch b {
	case SysArg:
		i, err := vm.pop()
		if err != nil {
			return vm.trap("%v", err)
		}
		vm.cycles += vm.cost.SysFixed
		if i < 0 || int(i) >= len(vm.args) {
			return vm.trap("mvm: argument index %d out of range (argc=%d)", i, len(vm.args))
		}
		vm.push(vm.args[i])
		vm.pc++
	case SysArgc:
		vm.cycles += vm.cost.SysFixed
		vm.push(int64(len(vm.args)))
		vm.pc++
	case SysScanInt:
		return vm.scanToken(false)
	case SysScanFloat:
		return vm.scanToken(true)
	case SysReadByte:
		if vm.inputPos >= len(vm.input) && !vm.inputFinal {
			vm.state = StateNeedInput
			return vm.state // pc unchanged: re-executes after Feed
		}
		vm.cycles += vm.cost.SysFixed
		if vm.inputPos >= len(vm.input) {
			vm.push(-1)
		} else {
			vm.push(int64(vm.input[vm.inputPos]))
			vm.inputPos++
			vm.consumed++
		}
		vm.pc++
	case SysPeekByte:
		if vm.inputPos >= len(vm.input) && !vm.inputFinal {
			vm.state = StateNeedInput
			return vm.state
		}
		vm.cycles += vm.cost.SysFixed
		if vm.inputPos >= len(vm.input) {
			vm.push(-1)
		} else {
			vm.push(int64(vm.input[vm.inputPos]))
		}
		vm.pc++
	case SysEOF:
		if vm.inputPos >= len(vm.input) && !vm.inputFinal {
			vm.state = StateNeedInput
			return vm.state
		}
		vm.cycles += vm.cost.SysFixed
		if vm.inputPos >= len(vm.input) {
			vm.push(1)
		} else {
			vm.push(0)
		}
		vm.pc++
	case SysEmitI32, SysEmitI64, SysEmitF32, SysEmitF64, SysEmitByte:
		v, err := vm.pop()
		if err != nil {
			return vm.trap("%v", err)
		}
		vm.sysEmitVal(b, v)
	case SysPrintInt:
		v, err := vm.pop()
		if err != nil {
			return vm.trap("%v", err)
		}
		vm.sysPrintIntVal(v)
	case SysPrintChar:
		v, err := vm.pop()
		if err != nil {
			return vm.trap("%v", err)
		}
		vm.sysPrintCharVal(v)
	case SysFlush:
		vm.cycles += vm.cost.SysFixed
		vm.pc++
		if len(vm.output) > 0 {
			vm.state = StateFlushRequested
			return vm.state
		}
	case SysOutLen:
		vm.cycles += vm.cost.SysFixed
		vm.push(int64(len(vm.output)))
		vm.pc++
	default:
		return vm.trap("mvm: unknown builtin %d", int64(b))
	}
	return StateRunnable
}

// sysEmitVal appends v's encoding for one of the binary emit builtins,
// charges the per-byte cost, advances pc, and applies the flush
// threshold. Shared between the generic sys dispatch and the compiled
// engine's (possibly fused) emit handlers.
func (vm *VM) sysEmitVal(b Builtin, v int64) {
	var buf [8]byte
	var n int
	switch b {
	case SysEmitI32:
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		n = 4
	case SysEmitI64:
		binary.LittleEndian.PutUint64(buf[:8], uint64(v))
		n = 8
	case SysEmitF32:
		binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(float32(math.Float64frombits(uint64(v)))))
		n = 4
	case SysEmitF64:
		binary.LittleEndian.PutUint64(buf[:8], uint64(v))
		n = 8
	case SysEmitByte:
		buf[0] = byte(v)
		n = 1
	}
	vm.output = append(vm.output, buf[:n]...)
	vm.cycles += vm.cost.SysFixed + vm.cost.EmitPerByte*float64(n)
	vm.pc++
	vm.checkOutput()
}

// sysPrintIntVal implements ms_printf("%d") for an already-popped value.
func (vm *VM) sysPrintIntVal(v int64) {
	n0 := len(vm.output)
	vm.output = strconv.AppendInt(vm.output, v, 10)
	vm.cycles += vm.cost.SysFixed + vm.cost.PrintPerByte*float64(len(vm.output)-n0)
	vm.pc++
	vm.checkOutput()
}

// sysPrintCharVal implements ms_printf("%c") for an already-popped value.
func (vm *VM) sysPrintCharVal(v int64) {
	vm.output = append(vm.output, byte(v))
	vm.cycles += vm.cost.SysFixed + vm.cost.PrintPerByte
	vm.pc++
	vm.checkOutput()
}

func (vm *VM) checkOutput() {
	if len(vm.output) >= vm.cfg.OutputFlushThreshold {
		vm.state = StateOutputFull
	}
}

// scanToken implements ms_scanf("%d") / ms_scanf("%f"): skip whitespace,
// consume one token, push (value, ok). If the window ends before the token
// provably ends and more input may arrive, the VM pauses with NeedInput
// without consuming anything, so the call re-executes after Feed.
func (vm *VM) scanToken(isFloat bool) State {
	in, pos := vm.input, vm.inputPos
	// Skip whitespace.
	i := pos
	for i < len(in) && isSpace(in[i]) {
		i++
	}
	if i >= len(in) && !vm.inputFinal {
		vm.state = StateNeedInput
		return vm.state
	}
	start := i
	for i < len(in) && !isSpace(in[i]) {
		i++
	}
	if i >= len(in) && !vm.inputFinal {
		// Token may continue into the next chunk.
		vm.state = StateNeedInput
		return vm.state
	}
	tokLen := i - start
	consumed := i - pos
	perByte, fixed := vm.cost.ScanIntPerByte, vm.cost.ScanIntFixed
	if isFloat {
		perByte, fixed = vm.cost.ScanFloatPerByte, vm.cost.ScanFloatFixed
	}
	vm.cycles += fixed + perByte*float64(consumed)
	if tokLen == 0 {
		// End of stream: ok=0.
		vm.inputPos = i
		vm.consumed += int64(consumed)
		vm.push(0)
		if err := vm.push(0); err != nil {
			return vm.trap("%v", err)
		}
		vm.pc++
		return StateRunnable
	}
	tok := string(in[start:i])
	var value int64
	if isFloat {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return vm.trap("mvm: ms_scanf(%%f): bad token %q", tok)
		}
		value = int64(math.Float64bits(f))
		vm.floatScans++
	} else {
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return vm.trap("mvm: ms_scanf(%%d): bad token %q", tok)
		}
		value = n
		vm.intScans++
	}
	vm.inputPos = i
	vm.consumed += int64(consumed)
	vm.push(value)
	if err := vm.push(1); err != nil {
		return vm.trap("%v", err)
	}
	vm.pc++
	return StateRunnable
}

// spaceTable marks the token separators of ms_scanf: space, newline,
// tab, CR and comma.
var spaceTable = [256]bool{' ': true, '\n': true, '\t': true, '\r': true, ',': true}

func isSpace(b byte) bool { return spaceTable[b] }
