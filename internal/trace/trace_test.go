package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestWriterEncodesJSONLines(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Time: 1.5, Kind: RequestIssued, Node: 3, Key: 42})
	w.Emit(Event{Time: 2.0, Kind: RequestCompleted, Node: 3, Key: 42, Class: "remote", Latency: 0.5})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != 2 {
		t.Errorf("Events = %d", w.Events())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != RequestIssued || e.Node != 3 || e.Key != 42 {
		t.Errorf("decoded %+v", e)
	}
	// Optional fields are omitted when zero.
	if strings.Contains(lines[0], "latency") || strings.Contains(lines[0], "class") {
		t.Errorf("zero optional fields not omitted: %s", lines[0])
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriterPropagatesErrors(t *testing.T) {
	w := NewWriter(failingWriter{})
	// Fill past the bufio buffer to force a write.
	big := strings.Repeat("x", 100)
	for i := 0; i < 100*bufio.MaxScanTokenSize/100; i++ {
		w.Emit(Event{Kind: Kind(big)})
		if w.err != nil {
			break
		}
	}
	if err := w.Flush(); err == nil {
		t.Fatal("error not propagated")
	}
	// Emit after error is a no-op.
	n := w.Events()
	w.Emit(Event{Kind: RequestIssued})
	if w.Events() != n {
		t.Error("Emit after error still counted")
	}
}

func TestCanonicalizeIsOrderFree(t *testing.T) {
	// A multiset with ties on every prefix: the order must be total up to
	// full equality so any permutation canonicalizes identically.
	events := []Event{
		{Time: 2, Kind: RequestCompleted, Node: 1, Key: 7, Class: "remote", Latency: 0.5},
		{Time: 1, Kind: RequestIssued, Node: 4, Key: 9},
		{Time: 1, Kind: RequestIssued, Node: 2, Key: 9},
		{Time: 1, Kind: RequestIssued, Node: 2, Key: 3},
		{Time: 2, Kind: RequestCompleted, Node: 1, Key: 7, Class: "local", Latency: 0.1},
		{Time: 2, Kind: RequestCompleted, Node: 1, Key: 7, Class: "remote", Latency: 0.2, Stale: true},
		{Time: 2, Kind: Handoff, Node: 1, Region: 3, Count: 2},
		{Time: 2, Kind: Handoff, Node: 1, Region: 3, Count: 1},
		{Time: 2, Kind: Handoff, Node: 1, Region: 3, Count: 1}, // exact duplicate
	}
	want := append([]Event(nil), events...)
	Canonicalize(want)
	wantBytes := encode(t, want)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Event(nil), events...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		Canonicalize(shuffled)
		if got := encode(t, shuffled); !bytes.Equal(got, wantBytes) {
			t.Fatalf("trial %d: canonical encoding differs:\n%s\nvs\n%s", trial, got, wantBytes)
		}
	}
}

// encode renders events through a Writer.
func encode(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
