package mvm

// RunInterp executes vm on the reference interpreter, for the external
// test package's application-level differential (vm_diff_test.go).
func RunInterp(vm *VM) State { return vm.runInterp() }

// LoopHeads returns the pcs of prog that get the scan/emit loop
// superinstruction.
var LoopHeads = loopHeads
