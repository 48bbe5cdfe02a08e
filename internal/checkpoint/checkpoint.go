// Package checkpoint defines the on-disk snapshot format for
// PReCinCt simulation state: a versioned, self-describing container of
// per-component sections, each CRC-checked, written atomically. The
// format captures everything needed to restore a run at a quiescent
// event boundary and continue it bit-identically — scheduler clock and
// pending recurring processes, every random stream's state, mobility
// anchors, radio channel state, the full protocol-layer state (caches,
// stores, region tables, ground truth), metrics and energy accumulators.
//
// The container is deliberately strict on decode: wrong magic, unknown
// version, wrong section count, out-of-order or misnamed sections, CRC
// mismatches, truncation and trailing garbage are all distinct, fatal,
// descriptive errors. A snapshot either restores completely or not at
// all; partial state never escapes. DESIGN.md section 10 documents the
// schema and its compatibility rules.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"precinct/internal/energy"
	"precinct/internal/metrics"
	"precinct/internal/mobility"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/sim"
	"precinct/internal/workload"
)

// Magic identifies a PReCinCt checkpoint file.
const Magic = "PRCNCKPT"

// Version is the current snapshot format version. Any change to a
// section's schema (field added, removed, reordered, re-typed) must bump
// this; Decode rejects versions it does not know rather than guessing.
//
// Version 2: the energy section stores integer (bytes, messages)
// accumulator cells instead of precomputed floats, scheduler processes
// carry their creator for canonical-key-faithful re-arming, and
// message-ID counters moved from the network section into each peer.
//
// Version 3: the metrics section carries the streaming collector's
// running aggregates (sample cap, total seen, Kahan latency sums, max,
// per-class sums, reservoir RNG state) alongside the retained samples,
// so a capped collector restores mid-reservoir bit-identically.
//
// Version 4: a trailing "workload" section carries the traffic source's
// mutable state (kind tag, trace replay cursors, rank-churn epoch and
// permutation), so non-stationary and trace-driven runs resume
// bit-identically.
//
// Version 5: stored items and pending requests carry integer replica
// ranks (StoredItem.ReplicaRank, PendingReqState.ReplicaRank) instead of
// the boolean replica flag, supporting k > 1 replica regions per key.
//
// Version 6: the scenario in the meta section lost the four fields that
// selected retired reference implementations (DESIGN.md section 10); it
// is decoded strictly, so a version-5 scenario no longer parses. No
// other section changed.
const Version = 6

// sectionNames is the canonical section order. Decode enforces it
// exactly: a reordered or renamed section means the file was not written
// by this code path and nothing can be assumed about its contents.
var sectionNames = []string{
	"meta", "sched", "rng", "mobility", "radio", "network", "metrics", "energy", "workload",
}

// castagnoli is the CRC-32C table used for section checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta is the snapshot's self-description, serialized as JSON so the
// scenario stays human-inspectable with standard tools. Scenario is kept
// opaque here (this package cannot import the root precinct package);
// the restore path decodes it into a precinct.Scenario.
type Meta struct {
	FormatVersion int
	SimTime       float64
	Scenario      json.RawMessage
}

// Snapshot is the complete captured state of one run at a quiescent
// boundary.
type Snapshot struct {
	Meta     Meta
	Sched    sim.SchedulerState
	RNG      []sim.StreamState
	Mobility mobility.State
	Radio    radio.State
	Network  node.NetworkState
	Metrics  metrics.State
	Energy   energy.State
	Workload workload.SourceState
}

// Encode serializes a snapshot into the container format. The output is
// deterministic for a given snapshot: gob payloads over slice-only state
// (no maps) and no timestamps.
func Encode(s *Snapshot) ([]byte, error) {
	if s.Meta.FormatVersion != Version {
		return nil, fmt.Errorf("checkpoint: snapshot carries format version %d, encoder writes %d",
			s.Meta.FormatVersion, Version)
	}
	payloads := make([][]byte, 0, len(sectionNames))
	metaJSON, err := json.Marshal(s.Meta)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode meta: %w", err)
	}
	payloads = append(payloads, metaJSON)
	for _, enc := range []struct {
		name string
		v    any
	}{
		{"sched", &s.Sched},
		{"rng", &s.RNG},
		{"mobility", &s.Mobility},
		{"radio", &s.Radio},
		{"network", &s.Network},
		{"metrics", &s.Metrics},
		{"energy", &s.Energy},
		{"workload", &s.Workload},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(enc.v); err != nil {
			return nil, fmt.Errorf("checkpoint: encode %s: %w", enc.name, err)
		}
		payloads = append(payloads, buf.Bytes())
	}

	var out bytes.Buffer
	out.WriteString(Magic)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], Version)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(sectionNames)))
	out.Write(hdr[:])
	for i, name := range sectionNames {
		var nameLen [2]byte
		binary.BigEndian.PutUint16(nameLen[:], uint16(len(name)))
		out.Write(nameLen[:])
		out.WriteString(name)
		var payLen [8]byte
		binary.BigEndian.PutUint64(payLen[:], uint64(len(payloads[i])))
		out.Write(payLen[:])
		out.Write(payloads[i])
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.Checksum(payloads[i], castagnoli))
		out.Write(crc[:])
	}
	return out.Bytes(), nil
}

// Decode parses and validates a container, returning the snapshot. Every
// structural defect fails closed before any state object escapes.
func Decode(data []byte) (*Snapshot, error) {
	r := &reader{data: data}
	magic, err := r.take(len(Magic), "magic")
	if err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q; not a checkpoint file", magic)
	}
	hdr, err := r.take(8, "header")
	if err != nil {
		return nil, err
	}
	version := binary.BigEndian.Uint32(hdr[0:4])
	if version != Version {
		return nil, fmt.Errorf("checkpoint: unknown format version %d (this build reads %d)", version, Version)
	}
	count := binary.BigEndian.Uint32(hdr[4:8])
	if int(count) != len(sectionNames) {
		return nil, fmt.Errorf("checkpoint: file has %d sections, format version %d defines %d",
			count, version, len(sectionNames))
	}

	payloads := make(map[string][]byte, len(sectionNames))
	for i, want := range sectionNames {
		nl, err := r.take(2, fmt.Sprintf("section %d name length", i))
		if err != nil {
			return nil, err
		}
		nameLen := int(binary.BigEndian.Uint16(nl))
		nameB, err := r.take(nameLen, fmt.Sprintf("section %d name", i))
		if err != nil {
			return nil, err
		}
		name := string(nameB)
		if name != want {
			return nil, fmt.Errorf("checkpoint: section %d is %q, want %q (sections must appear in canonical order)",
				i, name, want)
		}
		pl, err := r.take(8, fmt.Sprintf("section %q payload length", name))
		if err != nil {
			return nil, err
		}
		payLen := binary.BigEndian.Uint64(pl)
		if payLen > uint64(len(r.data)-r.off) {
			return nil, fmt.Errorf("checkpoint: truncated file: section %q claims %d payload bytes, %d remain",
				name, payLen, len(r.data)-r.off)
		}
		payload, err := r.take(int(payLen), fmt.Sprintf("section %q payload", name))
		if err != nil {
			return nil, err
		}
		crcB, err := r.take(4, fmt.Sprintf("section %q checksum", name))
		if err != nil {
			return nil, err
		}
		want32 := binary.BigEndian.Uint32(crcB)
		if got := crc32.Checksum(payload, castagnoli); got != want32 {
			return nil, fmt.Errorf("checkpoint: section %q checksum mismatch (file %08x, computed %08x): corrupt file",
				name, want32, got)
		}
		payloads[name] = payload
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after the last section", len(r.data)-r.off)
	}

	s := &Snapshot{}
	if err := json.Unmarshal(payloads["meta"], &s.Meta); err != nil {
		return nil, fmt.Errorf("checkpoint: decode meta: %w", err)
	}
	if s.Meta.FormatVersion != Version {
		return nil, fmt.Errorf("checkpoint: meta declares format version %d inside a version-%d container",
			s.Meta.FormatVersion, Version)
	}
	for _, dec := range []struct {
		name string
		v    any
	}{
		{"sched", &s.Sched},
		{"rng", &s.RNG},
		{"mobility", &s.Mobility},
		{"radio", &s.Radio},
		{"network", &s.Network},
		{"metrics", &s.Metrics},
		{"energy", &s.Energy},
		{"workload", &s.Workload},
	} {
		if err := gob.NewDecoder(bytes.NewReader(payloads[dec.name])).Decode(dec.v); err != nil {
			return nil, fmt.Errorf("checkpoint: decode %s: %w", dec.name, err)
		}
	}
	return s, nil
}

// reader is a bounds-checked cursor over the container bytes.
type reader struct {
	data []byte
	off  int
}

func (r *reader) take(n int, what string) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, fmt.Errorf("checkpoint: truncated file: need %d bytes for %s, %d remain",
			n, what, len(r.data)-r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// WriteFile encodes the snapshot and writes it atomically: a temp file
// in the target directory, fsynced, then renamed over the destination —
// a crash mid-write leaves either the old snapshot or none, never a
// torn one.
func WriteFile(path string, s *Snapshot) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadFile reads and decodes a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return s, nil
}
