package trace

import (
	"strings"
	"testing"
)

// FuzzRead checks the parser never panics and that whatever it accepts,
// Analyze handles, and Timeline either rejects with an error or buckets
// every request exactly once, at any width.
func FuzzRead(f *testing.F) {
	f.Add(`{"t":1,"kind":"request-issued","node":0}`, 10.0)
	f.Add("", 10.0)
	f.Add("{\"t\":1}\n{\"t\":2,\"kind\":\"handoff\",\"node\":3,\"count\":2}", 10.0)
	f.Add(`{"t":-1,"kind":"x","node":-5,"latency":1e300}`, 10.0)
	f.Add(`{"t":1,"kind":"request-issued","node":0}`+"\n"+`{"t":600,"kind":"request-issued","node":1}`, 1e-300)
	f.Add(`{"t":1e308,"kind":"request-issued"}`+"\n"+`{"t":-1e308,"kind":"request-issued"}`, 1.0)
	f.Fuzz(func(t *testing.T, input string, width float64) {
		events, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		a := Analyze(events)
		if a.Events != uint64(len(events)) {
			t.Fatalf("Analyze counted %d of %d events", a.Events, len(events))
		}
		buckets, err := Timeline(events, width)
		if err != nil {
			return
		}
		if len(buckets) > maxBuckets {
			t.Fatalf("Timeline made %d buckets, above its bound %d", len(buckets), maxBuckets)
		}
		var requests uint64
		for _, b := range buckets {
			requests += b.Requests
		}
		if requests != a.Requests {
			t.Fatalf("Timeline bucketed %d of %d requests at width %v", requests, a.Requests, width)
		}
	})
}
