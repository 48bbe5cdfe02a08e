package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// Trace parsing for the Meta cachelib key-value trace format: CSV rows
// of `op,key,key_size,size` with op in {GET, SET, DELETE}. An optional
// header row, blank lines and `#` comments are tolerated; anything else
// malformed is an error with its line number — a trace that parses
// differently than intended would silently change every result derived
// from it.

// TraceOp enumerates the operations a trace row can carry.
type TraceOp uint8

// Trace operations.
const (
	OpGet TraceOp = iota
	OpSet
	OpDelete
)

// Parser limits. Keys beyond maxTraceKeyLen and item sizes beyond
// maxTraceItemSize are rejected rather than clamped: real cachelib
// traces hash keys to short hex strings, so an enormous field means a
// corrupt or hostile input. maxTraceLine bounds scanner memory.
const (
	maxTraceKeyLen   = 1024
	maxTraceItemSize = 1 << 30
	maxTraceLine     = 64 << 10
)

// Trace is a parsed access trace: the distinct keys in first-appearance
// order (defining the catalog: the i-th distinct key becomes Key(i))
// and the GET/SET operation sequences as catalog indices. DELETEs are
// counted but not replayed — the simulated system has no delete
// operation, and dropping them preserves the request mix the caching
// layer actually sees.
type Trace struct {
	sizes   []int    // per distinct key, first non-zero size seen (min 1)
	gets    []uint32 // catalog key index per GET, in trace order
	sets    []uint32 // catalog key index per SET, in trace order
	deletes int
}

// Gets returns the number of GET operations.
func (t *Trace) Gets() int { return len(t.gets) }

// Sets returns the number of SET operations.
func (t *Trace) Sets() int { return len(t.sets) }

// Deletes returns the number of DELETE rows (parsed but not replayed).
func (t *Trace) Deletes() int { return t.deletes }

// DistinctKeys returns the number of distinct keys across all rows.
func (t *Trace) DistinctKeys() int { return len(t.sizes) }

// BuildCatalog derives the simulation catalog from the trace: one item
// per distinct key, sized by the first non-zero size the trace reports
// for it (1 byte when the trace never gives one — zero-size items would
// break byte-weighted metrics).
func (t *Trace) BuildCatalog() *Catalog {
	c := &Catalog{items: make([]Item, len(t.sizes))}
	for i, size := range t.sizes {
		c.items[i] = Item{Key: Key(i), Size: size}
		c.totalSize += int64(size)
	}
	return c
}

// traceHeader is the canonical cachelib column header.
const traceHeader = "op,key,key_size,size"

// ParseTrace reads a cachelib-format trace. It fails on the first
// malformed row; a trace with zero GET rows is returned as-is (the
// TraceSource constructor rejects it, but parsing and inspection stay
// possible).
func ParseTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxTraceLine)
	t := &Trace{}
	keyIdx := make(map[string]uint32)
	line := 0
	for sc.Scan() {
		line++
		row := strings.TrimSpace(sc.Text())
		if row == "" || strings.HasPrefix(row, "#") {
			continue
		}
		if line == 1 && strings.EqualFold(row, traceHeader) {
			continue
		}
		fields := strings.Split(row, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("workload: trace line %d: %d fields, want 4 (%s)", line, len(fields), traceHeader)
		}
		var op TraceOp
		switch strings.ToUpper(strings.TrimSpace(fields[0])) {
		case "GET":
			op = OpGet
		case "SET":
			op = OpSet
		case "DELETE":
			op = OpDelete
		default:
			return nil, fmt.Errorf("workload: trace line %d: unknown op %q", line, fields[0])
		}
		key := strings.TrimSpace(fields[1])
		if key == "" {
			return nil, fmt.Errorf("workload: trace line %d: empty key", line)
		}
		if len(key) > maxTraceKeyLen {
			return nil, fmt.Errorf("workload: trace line %d: key is %d bytes, limit %d", line, len(key), maxTraceKeyLen)
		}
		// key_size is redundant with the key column in this format; it is
		// validated as a number and otherwise ignored, matching traces
		// whose keys were anonymized by hashing.
		if _, err := parseTraceInt(fields[2]); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: key_size: %v", line, err)
		}
		size, err := parseTraceInt(fields[3])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: size: %v", line, err)
		}
		if op == OpDelete {
			t.deletes++
			continue
		}
		idx, ok := keyIdx[key]
		if !ok {
			idx = uint32(len(t.sizes))
			keyIdx[key] = idx
			t.sizes = append(t.sizes, 1)
		}
		if size > 0 && t.sizes[idx] == 1 {
			t.sizes[idx] = size
		}
		if op == OpGet {
			t.gets = append(t.gets, idx)
		} else {
			t.sets = append(t.sets, idx)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace line %d: %w", line+1, err)
	}
	return t, nil
}

// parseTraceInt parses a non-negative bounded integer field.
func parseTraceInt(s string) (int, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not an integer: %q", s)
	}
	if v < 0 || v > maxTraceItemSize {
		return 0, fmt.Errorf("value %d outside [0, %d]", v, maxTraceItemSize)
	}
	return int(v), nil
}

// ReadTraceFile parses the trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	t, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// TraceSource replays a parsed trace onto the mobile requesters. The
// trace format carries no timestamps, so arrivals are the shared Poisson
// process; the key sequence comes from the trace: peer p's k-th request
// takes the GET at global index (p + k*peers) mod Gets(), so the peers
// interleave through the trace stride-wise, every row is replayed once
// per full pass, and per-peer state is a single cursor. SETs replay the
// same way as update targets.
type TraceSource struct {
	trace   *Trace
	catalog *Catalog
	peers   int
	reqCur  []int64
	updCur  []int64 // nil when updates are disabled
}

// NewTraceSource builds the replay of tr over peers requesters. With
// updates on, SET rows are replayed as update targets, so the trace must
// carry some.
func NewTraceSource(tr *Trace, peers int, updates bool) (*TraceSource, error) {
	if tr.Gets() == 0 {
		return nil, fmt.Errorf("workload: trace has no GET operations to replay")
	}
	s := &TraceSource{
		trace:   tr,
		catalog: tr.BuildCatalog(),
		peers:   peers,
		reqCur:  make([]int64, peers),
	}
	if updates {
		if tr.Sets() == 0 {
			return nil, fmt.Errorf("workload: updates are on but the trace has no SET operations")
		}
		s.updCur = make([]int64, peers)
	}
	return s, nil
}

// Catalog returns the catalog derived from the trace's distinct keys.
func (s *TraceSource) Catalog() *Catalog { return s.catalog }

// PickKey replays the peer's next GET row and advances its cursor.
func (s *TraceSource) PickKey(c Ctx) Key {
	k := s.trace.gets[s.pos(len(s.trace.gets), c.Peer, s.reqCur[c.Peer])]
	s.reqCur[c.Peer]++
	return Key(k)
}

// PickUpdateKey replays the peer's next SET row.
func (s *TraceSource) PickUpdateKey(c Ctx) Key {
	k := s.trace.sets[s.pos(len(s.trace.sets), c.Peer, s.updCur[c.Peer])]
	s.updCur[c.Peer]++
	return Key(k)
}

// pos maps a peer's k-th draw to a global trace index, striding the
// peers through the sequence with wraparound.
func (s *TraceSource) pos(n int, peer int, count int64) int {
	return int((int64(peer) + count*int64(s.peers)) % int64(n))
}

// SyntheticTraceConfig parameterizes WriteSyntheticTrace.
type SyntheticTraceConfig struct {
	Ops            int     // total rows to emit
	Keys           int     // distinct key population
	ZipfTheta      float64 // key popularity skew
	SetFraction    float64 // fraction of rows that are SETs
	DeleteFraction float64 // fraction of rows that are DELETEs
	MinSize        int     // bytes, inclusive
	MaxSize        int     // bytes, inclusive
	Seed           int64
}

// WriteSyntheticTrace emits a deterministic cachelib-format trace:
// Zipf-popular keys named key<idx>, sizes hashed from the key exactly
// like NewCatalog derives them. It exists so benchmarks and tests can
// exercise the trace path without committing megabytes of real trace.
func WriteSyntheticTrace(w io.Writer, cfg SyntheticTraceConfig) error {
	if cfg.Ops <= 0 || cfg.Keys <= 0 {
		return fmt.Errorf("workload: synthetic trace needs positive ops and keys, got %d/%d", cfg.Ops, cfg.Keys)
	}
	if cfg.SetFraction < 0 || cfg.DeleteFraction < 0 || cfg.SetFraction+cfg.DeleteFraction > 1 {
		return fmt.Errorf("workload: set/delete fractions %v/%v invalid", cfg.SetFraction, cfg.DeleteFraction)
	}
	if cfg.MinSize <= 0 || cfg.MaxSize < cfg.MinSize {
		return fmt.Errorf("workload: invalid size range [%d, %d]", cfg.MinSize, cfg.MaxSize)
	}
	z, err := NewZipf(cfg.Keys, cfg.ZipfTheta)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, traceHeader)
	span := cfg.MaxSize - cfg.MinSize + 1
	for i := 0; i < cfg.Ops; i++ {
		idx := z.Rank(rng) - 1
		op := "GET"
		switch u := rng.Float64(); {
		case u < cfg.SetFraction:
			op = "SET"
		case u < cfg.SetFraction+cfg.DeleteFraction:
			op = "DELETE"
		}
		key := fmt.Sprintf("key%d", idx)
		size := cfg.MinSize + int(keyHash(Key(idx))%uint64(span))
		fmt.Fprintf(bw, "%s,%s,%d,%d\n", op, key, len(key), size)
	}
	return bw.Flush()
}
