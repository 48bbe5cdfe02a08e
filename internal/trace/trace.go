// Package trace records structured simulation events — request
// lifecycles, key handoffs, updates, failures — as a JSON-lines stream.
// Tracing is optional: the protocol layer emits events only when a Tracer
// is installed, so the zero-cost path stays zero cost.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Kind labels an event.
type Kind string

// Event kinds emitted by the protocol layer.
const (
	RequestIssued    Kind = "request-issued"
	RequestCompleted Kind = "request-completed"
	RequestFailed    Kind = "request-failed"
	UpdateIssued     Kind = "update-issued"
	PollIssued       Kind = "poll-issued"
	Handoff          Kind = "handoff"
	RegionChange     Kind = "region-change"
	NodeCrashed      Kind = "node-crashed"
	NodeQuit         Kind = "node-quit"
	NodeRevived      Kind = "node-revived"
)

// Event is one timestamped simulation occurrence. Zero-valued optional
// fields are omitted from the JSON encoding.
type Event struct {
	Time float64 `json:"t"`
	Kind Kind    `json:"kind"`
	Node int     `json:"node"`
	Key  uint32  `json:"key,omitempty"`
	// Class is the hit class for request completions.
	Class string `json:"class,omitempty"`
	// Latency in seconds for request completions.
	Latency float64 `json:"latency,omitempty"`
	// Stale marks false hits.
	Stale bool `json:"stale,omitempty"`
	// Region is the new region for region changes; the target region
	// for handoffs.
	Region int `json:"region,omitempty"`
	// Count carries the number of keys in a handoff.
	Count int `json:"count,omitempty"`
}

// Tracer consumes events.
type Tracer interface {
	Emit(Event)
}

// Canonicalize sorts events in place into the canonical total order used
// to compare runs across execution modes: lexicographic over every field
// (time, kind, node, key, class, latency, stale, region, count). The
// order is total up to full equality, so any permutation of the same
// multiset of events canonicalizes to the same sequence — a sharded run
// whose shards emitted interleaved fragments compares byte-equal to the
// sequential run after both sides canonicalize.
func Canonicalize(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		return eventLess(events[i], events[j])
	})
}

// eventLess is the canonical strict order over events: lexicographic
// across all fields, in struct order.
func eventLess(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	if a.Stale != b.Stale {
		return b.Stale
	}
	if a.Region != b.Region {
		return a.Region < b.Region
	}
	return a.Count < b.Count
}

// Writer streams events as JSON lines to an io.Writer. It buffers; call
// Flush (or Close) when the run finishes. Not safe for concurrent use —
// the simulation core is single-threaded.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   uint64
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Tracer.
func (t *Writer) Emit(e Event) {
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(e); err != nil {
		t.err = fmt.Errorf("trace: %w", err)
		return
	}
	t.n++
}

// Events returns the number of events written so far.
func (t *Writer) Events() uint64 { return t.n }

// Flush drains the buffer and returns the first error encountered by any
// Emit or flush.
func (t *Writer) Flush() error {
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = fmt.Errorf("trace: %w", err)
	}
	return t.err
}

// Buffer retains events in memory (tests, per-shard buffering).
type Buffer struct {
	Events []Event
}

// Emit implements Tracer.
func (b *Buffer) Emit(e Event) { b.Events = append(b.Events, e) }
