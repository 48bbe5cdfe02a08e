package trace

// Offline analysis of recorded traces: parse a JSONL stream back into
// events and summarize it — request outcomes, latency, per-node activity,
// and a time-bucketed activity timeline. Used by `precinct-sim analyze`.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Read parses a JSON-lines trace stream. Blank lines are skipped; a
// malformed line aborts with an error naming its line number.
func Read(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		// The scanner stops before delivering the offending line (e.g. one
		// longer than the 4 MiB buffer), so the error belongs to the line
		// after the last one it handed out.
		return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
	}
	return events, nil
}

// NodeActivity aggregates one node's recorded behaviour.
type NodeActivity struct {
	Node      int
	Requests  uint64
	Completed uint64
	Failed    uint64
	Updates   uint64
	Polls     uint64
	Handoffs  uint64
	Crossings uint64 // region changes
}

// Analysis is a trace summary.
type Analysis struct {
	Events uint64
	ByKind map[Kind]uint64

	Start float64
	End   float64

	Requests    uint64
	Completed   uint64
	Failed      uint64
	StaleServed uint64
	ByClass     map[string]uint64

	MeanLatency float64
	MaxLatency  float64

	Nodes []NodeActivity // sorted by node ID, only nodes with activity
}

// Analyze summarizes a trace.
func Analyze(events []Event) Analysis {
	a := Analysis{
		ByKind:  make(map[Kind]uint64),
		ByClass: make(map[string]uint64),
		Start:   math.Inf(1),
		End:     math.Inf(-1),
	}
	perNode := make(map[int]*NodeActivity)
	node := func(id int) *NodeActivity {
		na := perNode[id]
		if na == nil {
			na = &NodeActivity{Node: id}
			perNode[id] = na
		}
		return na
	}
	var latSum float64
	for _, e := range events {
		a.Events++
		a.ByKind[e.Kind]++
		if e.Time < a.Start {
			a.Start = e.Time
		}
		if e.Time > a.End {
			a.End = e.Time
		}
		switch e.Kind {
		case RequestIssued:
			a.Requests++
			node(e.Node).Requests++
		case RequestCompleted:
			a.Completed++
			node(e.Node).Completed++
			if e.Class != "" {
				a.ByClass[e.Class]++
			}
			if e.Stale {
				a.StaleServed++
			}
			latSum += e.Latency
			if e.Latency > a.MaxLatency {
				a.MaxLatency = e.Latency
			}
		case RequestFailed:
			a.Failed++
			node(e.Node).Failed++
		case UpdateIssued:
			node(e.Node).Updates++
		case PollIssued:
			node(e.Node).Polls++
		case Handoff:
			node(e.Node).Handoffs++
		case RegionChange:
			node(e.Node).Crossings++
		}
	}
	if a.Completed > 0 {
		a.MeanLatency = latSum / float64(a.Completed)
	}
	if a.Events == 0 {
		a.Start, a.End = 0, 0
	}
	ids := make([]int, 0, len(perNode))
	for id := range perNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a.Nodes = append(a.Nodes, *perNode[id])
	}
	return a
}

// Bucket is one timeline slot.
type Bucket struct {
	Start     float64
	Requests  uint64
	Completed uint64
	Failed    uint64
	Handoffs  uint64
}

// maxBuckets bounds the slots one Timeline may allocate. A trace's times
// and the width both come from outside the program; a width far below
// the trace's span must be an error, not an allocation that cannot be
// made.
const maxBuckets = 1 << 20

// Timeline buckets request activity into fixed-width time slots. Width
// must be positive and finite, and the span of the trace must fit in
// maxBuckets slots; the result covers [floor(start), end].
func Timeline(events []Event, width float64) ([]Bucket, error) {
	if !(width > 0) || math.IsInf(width, 1) {
		return nil, fmt.Errorf("trace: bucket width must be positive and finite, got %v", width)
	}
	if len(events) == 0 {
		return nil, nil
	}
	start, end := math.Inf(1), math.Inf(-1)
	for _, e := range events {
		if e.Time < start {
			start = e.Time
		}
		if e.Time > end {
			end = e.Time
		}
	}
	// Slot i holds the times t with floor(t/width) = first+i. Both the
	// division and floor are monotone, so every event's slot lies in
	// [0, last-first] however the arithmetic rounds.
	first, last := math.Floor(start/width), math.Floor(end/width)
	if !(last-first < maxBuckets) {
		return nil, fmt.Errorf("trace: %v s buckets over [%v s, %v s] need more than %d slots", width, start, end, maxBuckets)
	}
	buckets := make([]Bucket, int(last-first)+1)
	origin := first * width
	for i := range buckets {
		buckets[i].Start = origin + float64(i)*width
	}
	for _, e := range events {
		i := int(math.Floor(e.Time/width) - first)
		switch e.Kind {
		case RequestIssued:
			buckets[i].Requests++
		case RequestCompleted:
			buckets[i].Completed++
		case RequestFailed:
			buckets[i].Failed++
		case Handoff:
			buckets[i].Handoffs++
		}
	}
	return buckets, nil
}
