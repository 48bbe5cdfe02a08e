package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"precinct/internal/trace"
)

// runAnalyze is `precinct-sim analyze [-timeline s] [-top n] [file]`: it
// summarizes a JSONL protocol trace written by -trace (or
// precinct.RunTraced), read from file or, without one, from stdin:
// request outcomes, latency, the busiest peers and, with -timeline, a
// time-bucketed activity timeline.
func runAnalyze(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("precinct-sim analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	timeline := fs.Float64("timeline", 0, "print an activity timeline with this bucket width in seconds (0 = none)")
	topN := fs.Int("top", 5, "how many of the busiest peers to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*timeline >= 0) {
		return fmt.Errorf("-timeline must be a bucket width in seconds, or 0 for none; got %v", *timeline)
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("analyze reads one trace file, got %d", fs.NArg())
	}

	in := stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	events, err := trace.Read(in)
	if err != nil {
		return err
	}
	var buckets []trace.Bucket
	if *timeline > 0 {
		if buckets, err = trace.Timeline(events, *timeline); err != nil {
			return err
		}
	}
	a := trace.Analyze(events)

	fmt.Fprintf(stdout, "events:      %d over [%.1f s, %.1f s]\n", a.Events, a.Start, a.End)
	fmt.Fprintf(stdout, "requests:    %d issued, %d completed, %d failed\n", a.Requests, a.Completed, a.Failed)
	if a.Completed > 0 {
		fmt.Fprintf(stdout, "latency:     mean %.3f s, max %.3f s\n", a.MeanLatency, a.MaxLatency)
		fmt.Fprintf(stdout, "stale:       %d served stale\n", a.StaleServed)
		classes := make([]string, 0, len(a.ByClass))
		for c := range a.ByClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Fprintf(stdout, "  %-10s %d\n", c+":", a.ByClass[c])
		}
	}

	if len(a.Nodes) > 0 && *topN > 0 {
		byRequests := make([]trace.NodeActivity, len(a.Nodes))
		copy(byRequests, a.Nodes)
		sort.Slice(byRequests, func(i, j int) bool {
			return byRequests[i].Requests > byRequests[j].Requests
		})
		if len(byRequests) > *topN {
			byRequests = byRequests[:*topN]
		}
		fmt.Fprintf(stdout, "\nbusiest peers (of %d active):\n", len(a.Nodes))
		fmt.Fprintf(stdout, "%6s %9s %10s %7s %8s %9s %10s\n",
			"node", "requests", "completed", "failed", "updates", "handoffs", "crossings")
		for _, n := range byRequests {
			fmt.Fprintf(stdout, "%6d %9d %10d %7d %8d %9d %10d\n",
				n.Node, n.Requests, n.Completed, n.Failed, n.Updates, n.Handoffs, n.Crossings)
		}
	}

	if *timeline > 0 {
		fmt.Fprintf(stdout, "\ntimeline (%.0f s buckets):\n", *timeline)
		fmt.Fprintf(stdout, "%10s %9s %10s %7s %9s\n", "t", "requests", "completed", "failed", "handoffs")
		for _, b := range buckets {
			fmt.Fprintf(stdout, "%10.0f %9d %10d %7d %9d\n",
				b.Start, b.Requests, b.Completed, b.Failed, b.Handoffs)
		}
	}
	return nil
}
