package mvm

import (
	"encoding/binary"
	"math"
)

// runInterp is the reference interpreter: a switch over one instruction
// at a time, with error-checked stack operations. It is the oracle of the
// engine differential battery (engine_test.go) and, through
// export_test.go, of the application-level differential in
// vm_diff_test.go. The compiled engine behind Run must match it bit for
// bit: output bytes, cycles, steps, scan counts, traps and profiles.
func (vm *VM) runInterp() State {
	if vm.state == StateHalted || vm.state == StateTrapped {
		return vm.state
	}
	vm.state = StateRunnable
	code := vm.prog.Code
	for {
		if vm.pc < 0 || vm.pc >= len(code) {
			return vm.trap("mvm: pc out of range: %d", vm.pc)
		}
		if vm.cfg.MaxSteps > 0 && vm.steps >= vm.cfg.MaxSteps {
			return vm.trap("mvm: step limit exceeded (%d)", vm.cfg.MaxSteps)
		}
		ins := code[vm.pc]
		vm.steps++
		vm.cycles += vm.cost.Instr
		if vm.profile != nil {
			vm.profile.ops[ins.Op]++
			if ins.Op == OpSys {
				vm.profile.noteSys(Builtin(ins.Arg))
			}
		}
		switch ins.Op {
		case OpNop:
			vm.pc++
		case OpPush:
			if err := vm.push(ins.Arg); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpPop:
			if _, err := vm.pop(); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpDup:
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(v)
			if err := vm.push(v); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpSwap:
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			b, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(a)
			vm.push(b)
			vm.pc++
		case OpLoad:
			f := &vm.frames[len(vm.frames)-1]
			if ins.Arg < 0 || int(ins.Arg) >= len(f.locals) {
				return vm.trap("mvm: local index %d out of range", ins.Arg)
			}
			if err := vm.push(f.locals[ins.Arg]); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpStore:
			f := &vm.frames[len(vm.frames)-1]
			if ins.Arg < 0 || int(ins.Arg) >= len(f.locals) {
				return vm.trap("mvm: local index %d out of range", ins.Arg)
			}
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			f.locals[ins.Arg] = v
			vm.pc++
		case OpGLoad:
			if ins.Arg < 0 || int(ins.Arg) >= len(vm.globals) {
				return vm.trap("mvm: global index %d out of range", ins.Arg)
			}
			if err := vm.push(vm.globals[ins.Arg]); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpGStore:
			if ins.Arg < 0 || int(ins.Arg) >= len(vm.globals) {
				return vm.trap("mvm: global index %d out of range", ins.Arg)
			}
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.globals[ins.Arg] = v
			vm.pc++
		case OpLd8, OpLd32, OpLd64:
			vm.cycles += vm.cost.MemOp
			addr, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			size := map[Op]int64{OpLd8: 1, OpLd32: 4, OpLd64: 8}[ins.Op]
			if addr < 0 || addr+size > int64(vm.cfg.DSRAMSize) {
				return vm.trap("mvm: D-SRAM load out of range: addr=%d size=%d", addr, size)
			}
			sram := vm.dsram()
			var v int64
			switch ins.Op {
			case OpLd8:
				v = int64(sram[addr])
			case OpLd32:
				v = int64(int32(binary.LittleEndian.Uint32(sram[addr:])))
			case OpLd64:
				v = int64(binary.LittleEndian.Uint64(sram[addr:]))
			}
			if err := vm.push(v); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpSt8, OpSt32, OpSt64:
			vm.cycles += vm.cost.MemOp
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			addr, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			size := map[Op]int64{OpSt8: 1, OpSt32: 4, OpSt64: 8}[ins.Op]
			if addr < 0 || addr+size > int64(vm.cfg.DSRAMSize) {
				return vm.trap("mvm: D-SRAM store out of range: addr=%d size=%d", addr, size)
			}
			sram := vm.dsram()
			switch ins.Op {
			case OpSt8:
				sram[addr] = byte(v)
			case OpSt32:
				binary.LittleEndian.PutUint32(sram[addr:], uint32(v))
			case OpSt64:
				binary.LittleEndian.PutUint64(sram[addr:], uint64(v))
			}
			vm.pc++
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
			OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			b, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			v, err := intBinop(ins.Op, a, b)
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(v)
			vm.pc++
		case OpNeg:
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(-a)
			vm.pc++
		case OpNot:
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			if a == 0 {
				vm.push(1)
			} else {
				vm.push(0)
			}
			vm.pc++
		case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFEq, OpFLt, OpFLe:
			vm.floatOps++
			if ins.Op == OpFDiv {
				vm.cycles += vm.cost.SoftFloatDiv - vm.cost.Instr
			} else {
				vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			}
			bb, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			ab, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			a, b := math.Float64frombits(uint64(ab)), math.Float64frombits(uint64(bb))
			switch ins.Op {
			case OpFAdd:
				vm.push(int64(math.Float64bits(a + b)))
			case OpFSub:
				vm.push(int64(math.Float64bits(a - b)))
			case OpFMul:
				vm.push(int64(math.Float64bits(a * b)))
			case OpFDiv:
				vm.push(int64(math.Float64bits(a / b)))
			case OpFEq:
				vm.push(boolToInt(a == b))
			case OpFLt:
				vm.push(boolToInt(a < b))
			case OpFLe:
				vm.push(boolToInt(a <= b))
			}
			vm.pc++
		case OpFNeg:
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			ab, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(int64(math.Float64bits(-math.Float64frombits(uint64(ab)))))
			vm.pc++
		case OpI2F:
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(int64(math.Float64bits(float64(a))))
			vm.pc++
		case OpF2I:
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			ab, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(int64(math.Float64frombits(uint64(ab))))
			vm.pc++
		case OpJmp:
			vm.cycles += vm.cost.Branch
			vm.pc = int(ins.Arg)
		case OpJz, OpJnz:
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			taken := (v == 0) == (ins.Op == OpJz)
			if taken {
				vm.cycles += vm.cost.Branch
				vm.pc = int(ins.Arg)
			} else {
				vm.pc++
			}
		case OpCall:
			vm.cycles += vm.cost.Call
			vm.pushFrame(vm.pc + 1)
			vm.pc = int(ins.Arg)
		case OpRet:
			vm.cycles += vm.cost.Call
			if len(vm.frames) == 1 {
				// Return from main = halt.
				vm.retVal = 0
				if len(vm.stack) > 0 {
					vm.retVal = vm.stack[len(vm.stack)-1]
				}
				vm.state = StateHalted
				return vm.state
			}
			f := vm.frames[len(vm.frames)-1]
			vm.frames = vm.frames[:len(vm.frames)-1]
			vm.pc = f.retPC
		case OpHalt:
			vm.retVal = 0
			if len(vm.stack) > 0 {
				vm.retVal = vm.stack[len(vm.stack)-1]
			}
			vm.state = StateHalted
			return vm.state
		case OpSys:
			st := vm.sys(Builtin(ins.Arg))
			if st != StateRunnable {
				return st
			}
		default:
			return vm.trap("mvm: illegal opcode %d at pc=%d", ins.Op, vm.pc)
		}
		if vm.state == StateOutputFull || vm.state == StateFlushRequested {
			return vm.state
		}
	}
}
