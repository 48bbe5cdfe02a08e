package trace

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Time: 1, Kind: RequestIssued, Node: 0, Key: 5},
		{Time: 1.4, Kind: RequestCompleted, Node: 0, Key: 5, Class: "remote", Latency: 0.4},
		{Time: 2, Kind: RequestIssued, Node: 1, Key: 6},
		{Time: 2.1, Kind: RequestCompleted, Node: 1, Key: 6, Class: "local", Latency: 0.1, Stale: true},
		{Time: 3, Kind: RequestIssued, Node: 0, Key: 7},
		{Time: 5, Kind: RequestFailed, Node: 0, Key: 7},
		{Time: 6, Kind: UpdateIssued, Node: 2, Key: 5},
		{Time: 7, Kind: PollIssued, Node: 1, Key: 6},
		{Time: 8, Kind: Handoff, Node: 2, Region: 3, Count: 4},
		{Time: 9, Kind: RegionChange, Node: 2, Region: 3},
	}
}

func TestReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range sampleEvents() {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(sampleEvents()) {
		t.Fatalf("round trip lost events: %d vs %d", len(events), len(sampleEvents()))
	}
	for i, e := range events {
		want := sampleEvents()[i]
		if e.Kind != want.Kind || e.Node != want.Node || e.Time != want.Time {
			t.Errorf("event %d: %+v != %+v", i, e, want)
		}
	}
}

func TestReadSkipsBlankAndRejectsGarbage(t *testing.T) {
	in := "\n{\"t\":1,\"kind\":\"request-issued\",\"node\":0}\n\n"
	events, err := Read(strings.NewReader(in))
	if err != nil || len(events) != 1 {
		t.Fatalf("Read = %v, %v", events, err)
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

// TestReadOverlongLine feeds a line longer than the scanner buffer and
// requires the error to carry both the cause and the line number —
// previously the scanner error was surfaced with no position at all.
func TestReadOverlongLine(t *testing.T) {
	var in bytes.Buffer
	in.WriteString(`{"t":1,"kind":"request-issued","node":0}` + "\n")
	in.WriteString(`{"pad":"` + strings.Repeat("x", 5*1024*1024) + `"}` + "\n")
	_, err := Read(&in)
	if err == nil {
		t.Fatal("over-long line accepted")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the offending line: %v", err)
	}
}

func TestAnalyze(t *testing.T) {
	a := Analyze(sampleEvents())
	if a.Events != 10 {
		t.Errorf("Events = %d", a.Events)
	}
	if a.Requests != 3 || a.Completed != 2 || a.Failed != 1 {
		t.Errorf("request counts: %+v", a)
	}
	if a.StaleServed != 1 {
		t.Errorf("stale = %d", a.StaleServed)
	}
	if a.ByClass["remote"] != 1 || a.ByClass["local"] != 1 {
		t.Errorf("classes: %v", a.ByClass)
	}
	if a.MeanLatency != 0.25 || a.MaxLatency != 0.4 {
		t.Errorf("latency: mean %v max %v", a.MeanLatency, a.MaxLatency)
	}
	if a.Start != 1 || a.End != 9 {
		t.Errorf("span [%v, %v]", a.Start, a.End)
	}
	if len(a.Nodes) != 3 {
		t.Fatalf("nodes: %+v", a.Nodes)
	}
	n0 := a.Nodes[0]
	if n0.Node != 0 || n0.Requests != 2 || n0.Completed != 1 || n0.Failed != 1 {
		t.Errorf("node 0 activity: %+v", n0)
	}
	n2 := a.Nodes[2]
	if n2.Updates != 1 || n2.Handoffs != 1 || n2.Crossings != 1 {
		t.Errorf("node 2 activity: %+v", n2)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Events != 0 || a.Start != 0 || a.End != 0 {
		t.Errorf("empty analysis: %+v", a)
	}
}

func TestTimeline(t *testing.T) {
	buckets, err := Timeline(sampleEvents(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Events span t=1..9 -> buckets starting at 0,2,4,6,8.
	if len(buckets) != 5 {
		t.Fatalf("buckets: %d", len(buckets))
	}
	if buckets[0].Requests != 1 || buckets[0].Completed != 1 {
		t.Errorf("bucket 0: %+v", buckets[0])
	}
	if buckets[1].Requests != 2 || buckets[1].Completed != 1 {
		t.Errorf("bucket 1: %+v", buckets[1])
	}
	if buckets[2].Failed != 1 {
		t.Errorf("bucket 2: %+v", buckets[2])
	}
	if buckets[4].Handoffs != 1 {
		t.Errorf("bucket 4: %+v", buckets[4])
	}
	empty, err := Timeline(nil, 1)
	if err != nil || empty != nil {
		t.Errorf("empty timeline: %v, %v", empty, err)
	}
}

// TestTimelineRejects: a width or a span that cannot be bucketed is an
// error. The last two cases used to panic in make with a length out of
// range: a width far below the trace's span, and a span that overflows.
func TestTimelineRejects(t *testing.T) {
	wide := []Event{{Time: 1e308, Kind: RequestIssued}, {Time: -1e308, Kind: RequestIssued}}
	for _, tc := range []struct {
		name   string
		events []Event
		width  float64
	}{
		{"zero width", sampleEvents(), 0},
		{"negative width", sampleEvents(), -2},
		{"NaN width", sampleEvents(), math.NaN()},
		{"infinite width", sampleEvents(), math.Inf(1)},
		{"width 1e-300", sampleEvents(), 1e-300},
		{"span ±1e308", wide, 1},
	} {
		if b, err := Timeline(tc.events, tc.width); err == nil {
			t.Errorf("%s: %d buckets, want an error", tc.name, len(b))
		}
	}
}
