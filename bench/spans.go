package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the benchmark's own work. Spans are
// recorded around the calls into the simulator, from outside; spans
// inside the program are a later change (ROADMAP item 13).
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	// StartNS and EndNS are Unix nanoseconds, so a child process's spans
	// line up with its parent's.
	StartNS int64
	EndNS   int64
}

// spanLog keeps spans in memory until the bench ends.
type spanLog struct{ spans []span }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, StartNS: time.Now().UnixNano(),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].EndNS = time.Now().UnixNano() }

// adopt files spans a child process recorded under a parent span.
func (l *spanLog) adopt(child []span, parent int) {
	for _, s := range child {
		s.ID, s.Parent = len(l.spans)+1, parent
		l.spans = append(l.spans, s)
	}
}

// write stores the spans as dir/spans.json.
func (l *spanLog) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, "spans.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
