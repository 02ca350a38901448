// Command mvmrun executes a compiled StorageApp image on a standalone
// embedded-core VM — handy for debugging device code without the whole
// SSD: feed it an input file, get the emitted object bytes and the cycle
// accounting a real MINIT/MREAD train would charge.
//
// Usage:
//
//	mvmrun -in data.txt app.mc.mvm > objects.bin
//	mvmrun -src app.mc -in data.txt -args 3,5
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
	"morpheus/internal/units"
)

func main() {
	var (
		srcPath = flag.String("src", "", "compile this MorphC source instead of loading an image")
		entry   = flag.String("entry", "", "StorageApp entry point")
		inPath  = flag.String("in", "", "input stream file (default: empty stream)")
		argList = flag.String("args", "", "comma-separated int64 host arguments")
		freqMHz = flag.Float64("mhz", 830, "embedded core frequency for the time estimate")
		chunk   = flag.Int("chunk", 128<<10, "feed window size in bytes (the MDTS)")
		profile = flag.Bool("profile", false, "print a per-opcode execution histogram on exit")
	)
	flag.Parse()

	var prog mvm.Program
	switch {
	case *srcPath != "":
		src, err := os.ReadFile(*srcPath)
		if err != nil {
			fatal(err)
		}
		p, err := morphc.Compile(string(src), *entry)
		if err != nil {
			fatal(err)
		}
		prog = *p
	case flag.NArg() == 1:
		img, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if err := prog.UnmarshalBinary(img); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: mvmrun [-src app.mc | image.mvm] [-in data] [-args a,b,c]")
		os.Exit(2)
	}

	var args []int64
	if *argList != "" {
		for _, tok := range strings.Split(*argList, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad argument %q: %w", tok, err))
			}
			args = append(args, v)
		}
	}
	var input []byte
	if *inPath != "" {
		var err error
		input, err = os.ReadFile(*inPath)
		if err != nil {
			fatal(err)
		}
	}

	cfg := mvm.DefaultConfig()
	cfg.Profile = *profile
	vm, err := mvm.New(&prog, cfg, mvm.DefaultCostModel())
	if err != nil {
		fatal(err)
	}
	vm.SetArgs(args)
	pos := 0
	var outBytes int64
	feed := func() error {
		end := pos + *chunk
		if end > len(input) {
			end = len(input)
		}
		err := vm.Feed(input[pos:end], end == len(input))
		pos = end
		return err
	}
	if err := feed(); err != nil {
		fatal(err)
	}
	for {
		switch st := vm.Run(); st {
		case mvm.StateNeedInput:
			if err := feed(); err != nil {
				fatal(err)
			}
		case mvm.StateOutputFull, mvm.StateFlushRequested:
			out := vm.DrainOutput()
			outBytes += int64(len(out))
			os.Stdout.Write(out)
		case mvm.StateHalted:
			out := vm.DrainOutput()
			outBytes += int64(len(out))
			os.Stdout.Write(out)
			freq := units.Frequency(*freqMHz) * units.MHz
			ints, floats := vm.ScanCounts()
			fmt.Fprintf(os.Stderr,
				"mvmrun: %q halted: ret=%d in=%dB out=%dB cycles=%.0f (%.2f cyc/B, %v at %v) steps=%d scans=%d int/%d float softfloat-ops=%d\n",
				prog.Name, vm.ReturnValue(), vm.Consumed(), outBytes, vm.Cycles(),
				vm.Cycles()/float64(max64(vm.Consumed(), 1)),
				freq.Cycles(vm.Cycles()), freq, vm.Steps(), ints, floats, vm.FloatOps())
			if *profile {
				fmt.Fprint(os.Stderr, vm.Profile().String())
			}
			return
		case mvm.StateTrapped:
			fatal(vm.TrapErr())
		default:
			fatal(fmt.Errorf("unexpected VM state %v", st))
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mvmrun: %v\n", err)
	os.Exit(1)
}
