package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
	"precinct/internal/pool"
)

// runCheck is `precinct-sim check`: a batch of deterministically fuzzed
// scenarios under the full runtime invariant catalog (DESIGN.md section
// 9), the command-line counterpart of the invariant_test.go suite. Every
// seed expands into the same scenario on every machine, so a failing
// seed is a reproducible bug report, and an interrupted batch restarts
// at -start <seed>. It returns the process exit status: 2 when any
// scenario violates an invariant, 1 on a bad command line.
func runCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("precinct-sim check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	start := fs.Int64("start", 1, "first seed")
	seeds := fs.Int64("seeds", 20, "number of consecutive seeds to run")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent scenario runs")
	scale := fs.Bool("scale", false, "expand seeds with the large-N lossy scale generator instead of the regular fuzzer")
	maxNodes := fs.Int("max-nodes", 2000, "node-count cap for -scale scenarios")
	verbose := fs.Bool("v", false, "print every scenario result, not only failures")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "precinct-sim check: unexpected argument %q\n", fs.Arg(0))
		return 1
	}
	if *seeds <= 0 || *workers <= 0 {
		fmt.Fprintln(stderr, "precinct-sim check: -seeds and -workers must be positive")
		return 1
	}
	if *maxNodes <= 0 {
		fmt.Fprintln(stderr, "precinct-sim check: -max-nodes must be positive")
		return 1
	}
	expand := fuzzgen.Expand
	if *scale {
		expand = func(seed int64) precinct.Scenario { return fuzzgen.ExpandScale(seed, *maxNodes) }
	}

	type outcome struct {
		seed int64
		sc   precinct.Scenario
		inv  precinct.InvariantReport
		err  error
	}
	results := make([]outcome, *seeds)
	// A failed seed is an outcome to report, not an error that aborts the
	// batch: every job returns nil, so Run has no error to return.
	_ = pool.Run(len(results), *workers, func(i int) error {
		seed := *start + int64(i)
		sc := expand(seed)
		_, inv, err := precinct.RunChecked(sc)
		results[i] = outcome{seed: seed, sc: sc, inv: inv, err: err}
		return nil
	})

	failed := 0
	for _, r := range results {
		switch {
		case r.err != nil:
			failed++
			fmt.Fprintf(stderr, "seed %d (%s): %v\n", r.seed, r.sc.Name, r.err)
		case !r.inv.Ok():
			failed++
			fmt.Fprintf(stderr, "seed %d (%s): %s\n", r.seed, r.sc.Name, r.inv)
			for _, v := range r.inv.Violations {
				fmt.Fprintf(stderr, "  %s\n", v)
			}
		case *verbose:
			fmt.Fprintf(stdout, "seed %d (%s): ok — %s\n", r.seed, r.sc.Name, r.inv)
		}
	}
	fmt.Fprintf(stdout, "precinct-sim check: %d scenario(s), %d failed\n", *seeds, failed)
	if failed > 0 {
		return 2
	}
	return 0
}
