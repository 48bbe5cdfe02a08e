// Command precinct-check runs a batch of deterministically fuzzed
// scenarios under the full runtime invariant catalog (DESIGN.md
// section 9) — the command-line counterpart of the invariant_test.go
// suite. Every seed expands into the same scenario on every machine, so
// a failing seed is a reproducible bug report:
//
//	precinct-check                  # seeds 1..20
//	precinct-check -seeds 100       # seeds 1..100
//	precinct-check -start 42 -seeds 1 -v
//	precinct-check -scale -seeds 6  # large-N lossy corpus (ExpandScale)
//	precinct-check -scale -max-nodes 500 -seeds 4
//
// An interrupted batch restarts at -start <seed>. The process exits with
// status 2 when any scenario violates an invariant and 1 on
// configuration errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
	"precinct/internal/pool"
)

func main() {
	start := flag.Int64("start", 1, "first seed")
	seeds := flag.Int64("seeds", 20, "number of consecutive seeds to run")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent scenario runs")
	scale := flag.Bool("scale", false, "expand seeds with the large-N lossy scale generator instead of the regular fuzzer")
	maxNodes := flag.Int("max-nodes", 2000, "node-count cap for -scale scenarios")
	verbose := flag.Bool("v", false, "print every scenario result, not only failures")
	flag.Parse()
	if *seeds <= 0 || *workers <= 0 {
		fmt.Fprintln(os.Stderr, "precinct-check: -seeds and -workers must be positive")
		os.Exit(1)
	}
	if *maxNodes <= 0 {
		fmt.Fprintln(os.Stderr, "precinct-check: -max-nodes must be positive")
		os.Exit(1)
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
			fmt.Fprintf(os.Stderr, "seed %d (%s): %v\n", r.seed, r.sc.Name, r.err)
		case !r.inv.Ok():
			failed++
			fmt.Fprintf(os.Stderr, "seed %d (%s): %s\n", r.seed, r.sc.Name, r.inv)
			for _, v := range r.inv.Violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
		case *verbose:
			fmt.Printf("seed %d (%s): ok — %s\n", r.seed, r.sc.Name, r.inv)
		}
	}
	fmt.Printf("precinct-check: %d scenario(s), %d failed\n", *seeds, failed)
	if failed > 0 {
		os.Exit(2)
	}
}
