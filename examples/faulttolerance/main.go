// Fault tolerance: crash a wave of peers mid-run and compare request
// availability with and without PReCinCt's replica regions (Section 2.4).
// Crashed peers take their share of the key space down with them; the
// replica region — the second-closest region to each key's hash location —
// is what keeps those keys reachable.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"os"

	"precinct"
)

func main() {
	// Crash a third of the peers shortly after the warmup, in three
	// waves, without graceful handoff.
	base := precinct.DefaultScenario()
	base.Duration = 1200
	base.Warmup = 300
	faultStart, waveGap := 400.0, 100.0
	if os.Getenv("PRECINCT_EXAMPLE_QUICK") != "" {
		// Abbreviated run for the smoke-test suite.
		base.Duration = 300
		base.Warmup = 60
		faultStart, waveGap = 100, 30
	}
	var faults []precinct.Fault
	for i := 0; i < base.Nodes/3; i++ {
		faults = append(faults, precinct.Fault{
			At:   faultStart + float64(i%3)*waveGap,
			Node: i * 3, // every third peer
			Kind: "crash",
		})
	}

	withReplicas := base
	withReplicas.Name = "replication on"
	withReplicas.Replicas = 1
	withReplicas.Faults = faults

	withoutReplicas := base
	withoutReplicas.Name = "replication off"
	withoutReplicas.Replicas = 0
	withoutReplicas.Faults = faults

	baseline := base
	baseline.Name = "no faults"

	results, err := precinct.Sweep([]precinct.Scenario{baseline, withReplicas, withoutReplicas}, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Crashing %d of %d peers at t=%.0f-%.0f s\n\n",
		len(faults), base.Nodes, faultStart, faultStart+2*waveGap)
	fmt.Printf("%-18s  %10s  %10s  %14s  %12s\n",
		"scenario", "requests", "failures", "availability", "latency (s)")
	for _, res := range results {
		r := res.Report
		avail := 1.0
		if r.Requests > 0 {
			avail = float64(r.Completed) / float64(r.Requests)
		}
		fmt.Printf("%-18s  %10d  %10d  %13.1f%%  %12.3f\n",
			res.Scenario.Name, r.Requests, r.Failures, avail*100, r.MeanLatency)
	}
	fmt.Println("\nWith replica regions, requests that find the home region dead are")
	fmt.Println("rerouted to the key's replica region; without them those requests")
	fmt.Println("simply fail until mobility repopulates the home region.")
}
