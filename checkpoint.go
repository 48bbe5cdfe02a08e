package precinct

// Checkpoint/restore orchestration: capture a running simulation at a
// quiescent event boundary into the internal/checkpoint container,
// restore a snapshot into a runnable network that continues
// bit-identically, drive periodic checkpointing during a run
// (RunCheckpointed), resume interrupted sweeps (SweepCheckpointed), and
// replay or bisect snapshots (Replay, BisectSnapshots). The snapshot
// schema itself lives in internal/checkpoint and is documented in
// DESIGN.md section 10.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"precinct/internal/checkpoint"
	"precinct/internal/invariant"
	"precinct/internal/mobility"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/trace"
)

// capture snapshots the assembled simulation. It fails unless the run is
// at a quiescent boundary: every pending scheduler event must be a
// re-armable recurring process, which also guarantees no request is
// in flight and no frame is on the air.
func (b *built) capture() (*checkpoint.Snapshot, error) {
	schedState, err := b.sched.StateSnapshot()
	if err != nil {
		return nil, err
	}
	netState, err := b.network.StateSnapshot()
	if err != nil {
		return nil, err
	}
	radioState, err := b.channel.StateSnapshot()
	if err != nil {
		return nil, err
	}
	stateful, ok := b.mob.(mobility.Stateful)
	if !ok {
		return nil, fmt.Errorf("precinct: mobility model %T does not support checkpointing", b.mob)
	}
	scJSON, err := json.Marshal(b.scenario)
	if err != nil {
		return nil, fmt.Errorf("precinct: encode scenario: %w", err)
	}
	return &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			FormatVersion: checkpoint.Version,
			SimTime:       b.sched.Now(),
			Scenario:      scJSON,
		},
		Sched:    schedState,
		RNG:      b.rng.StateSnapshot(),
		Mobility: stateful.StateSnapshot(),
		Radio:    radioState,
		Network:  netState,
		Metrics:  b.coll.StateSnapshot(),
		Energy:   b.meter.StateSnapshot(),
		Workload: b.source.StateSnapshot(),
	}, nil
}

// snapHasSweep reports whether the snapshot was taken from a checked run
// (it carries the invariant runner's recurring sweep process).
func snapHasSweep(snap *checkpoint.Snapshot) bool {
	for _, pe := range snap.Sched.Procs {
		if pe.Proc.Kind == invariant.ProcSweep {
			return true
		}
	}
	return false
}

// restoreSnapshot rebuilds a runnable simulation from a snapshot. The
// scenario is decoded strictly from the snapshot itself, the network is
// rebuilt without arming any initial process, every component's state is
// overwritten from its section, and finally the recorded recurring
// processes are re-armed in their captured order. Any failure discards
// the half-restored build — partial state never escapes.
//
// A non-nil runner has its observers attached before processes are
// re-armed; it is required when the snapshot carries the invariant
// sweep process and must be nil-checked by the caller otherwise.
func restoreSnapshot(snap *checkpoint.Snapshot, tracer trace.Tracer, runner *invariant.Runner) (*built, error) {
	var s Scenario
	if err := decodeScenario(snap.Meta.Scenario, &s); err != nil {
		return nil, fmt.Errorf("precinct: snapshot scenario: %w", err)
	}
	if s.Shards > 1 {
		// Snapshots of sharded runs are never written; a scenario carrying
		// Shards > 1 here means the file was edited or corrupted.
		return nil, fmt.Errorf("precinct: snapshot scenario requests a sharded run; snapshots are sequential-only")
	}
	if snap.Meta.SimTime != snap.Sched.Now {
		return nil, fmt.Errorf("precinct: snapshot meta time %v disagrees with scheduler clock %v",
			snap.Meta.SimTime, snap.Sched.Now)
	}
	b, err := s.buildFull(tracer, false)
	if err != nil {
		return nil, fmt.Errorf("precinct: rebuild scenario: %w", err)
	}
	if err := b.sched.RestoreState(snap.Sched); err != nil {
		return nil, err
	}
	if err := b.rng.RestoreState(snap.RNG); err != nil {
		return nil, err
	}
	stateful, ok := b.mob.(mobility.Stateful)
	if !ok {
		return nil, fmt.Errorf("precinct: mobility model %T does not support checkpointing", b.mob)
	}
	if err := stateful.RestoreState(snap.Mobility); err != nil {
		return nil, err
	}
	if err := b.channel.RestoreState(snap.Radio); err != nil {
		return nil, err
	}
	if err := b.network.RestoreState(snap.Network); err != nil {
		return nil, err
	}
	if err := b.coll.RestoreState(snap.Metrics); err != nil {
		return nil, err
	}
	if err := b.meter.RestoreState(snap.Energy); err != nil {
		return nil, err
	}
	if err := b.source.RestoreState(snap.Workload); err != nil {
		return nil, err
	}
	if runner != nil {
		runner.AttachObservers(invariant.Context{
			Net:     b.network,
			Ch:      b.channel,
			Meter:   b.meter,
			Sched:   b.sched,
			Catalog: b.catalog,
		})
	}
	// Re-arm in the captured (ascending Seq) order, each process under
	// its recorded creator context, so every re-armed event is stamped
	// with the canonical key creator the original run gave it — same-time
	// events keep their relative order after a resume, sequential or
	// sharded alike.
	for _, pe := range snap.Sched.Procs {
		if pe.Time < b.sched.Now() {
			return nil, fmt.Errorf("precinct: snapshot process %q armed at %v, before the clock %v",
				pe.Proc.Kind, pe.Time, b.sched.Now())
		}
		b.sched.SetCur(pe.Creator)
		if pe.Proc.Kind == invariant.ProcSweep {
			if runner == nil {
				b.sched.SetCur(-1)
				return nil, fmt.Errorf("precinct: snapshot was taken from a checked run; restore it with invariant checking enabled")
			}
			runner.ArmSweepAt(pe.Time)
			continue
		}
		if err := b.rearm(pe.Proc, pe.Time); err != nil {
			b.sched.SetCur(-1)
			return nil, err
		}
	}
	b.sched.SetCur(-1)
	return b, nil
}

// CheckpointOptions parameterizes RunCheckpointed and SweepCheckpointed.
type CheckpointOptions struct {
	// Dir is the directory snapshots and completion records are kept in.
	// It must exist.
	Dir string
	// Interval is the target simulated seconds between snapshots; each
	// snapshot is written at the first quiescent event boundary at or
	// after the mark. Zero selects 60 s.
	Interval float64
	// Resume looks in Dir before running: a completion record for this
	// scenario returns the stored result immediately; a snapshot resumes
	// the run from it; otherwise the run starts fresh. A corrupt snapshot
	// is an error, never a silent restart.
	Resume bool
	// Label names the files (<Label>.ckpt, <Label>.done). Empty derives
	// a label from the scenario name and a hash of its full contents.
	Label string
	// StopAfter, when positive, interrupts the run at the first snapshot
	// boundary at or after this simulated time, leaving the snapshot on
	// disk for a later Resume. The returned Result covers only the
	// executed prefix and no completion record is written.
	StopAfter float64
	// TraceWriter, when non-nil, receives the protocol events of the
	// executed segment as JSON lines (see RunTraced). A resumed run
	// emits only the events after the snapshot, so concatenating the
	// interrupted and resumed streams reproduces the uninterrupted one.
	TraceWriter io.Writer
}

// deriveLabel names a scenario's checkpoint files: the sanitized scenario
// name plus a hash of the complete scenario, so two different scenarios
// never share files by accident.
func deriveLabel(s Scenario) string {
	j, err := json.Marshal(s)
	if err != nil {
		j = []byte(fmt.Sprintf("%+v", s))
	}
	h := fnv.New64a()
	h.Write(j)
	base := make([]rune, 0, len(s.Name))
	for _, r := range s.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			base = append(base, r)
		default:
			base = append(base, '-')
		}
	}
	name := string(base)
	if name == "" {
		name = "run"
	}
	return fmt.Sprintf("%s-%016x", name, h.Sum64())
}

// doneRecord is the completion record written next to the snapshot once
// a checkpointed run finishes, so a resumed sweep can skip it entirely.
type doneRecord struct {
	Scenario   Scenario
	Result     Result
	Checked    bool
	Invariants InvariantReport
}

// writeDone writes the completion record atomically (temp file + rename).
func writeDone(path string, rec doneRecord) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return fmt.Errorf("precinct: encode completion record: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".done-*")
	if err != nil {
		return fmt.Errorf("precinct: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("precinct: write %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("precinct: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("precinct: %w", err)
	}
	return nil
}

// readDone loads a completion record if one exists. A record for a
// different scenario under the same label is an error (label collision),
// as is a record that does not decode — resume fails closed.
func readDone(path string, s Scenario) (doneRecord, bool, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return doneRecord{}, false, nil
	}
	if err != nil {
		return doneRecord{}, false, fmt.Errorf("precinct: %w", err)
	}
	defer f.Close()
	var rec doneRecord
	if err := gob.NewDecoder(f).Decode(&rec); err != nil {
		return doneRecord{}, false, fmt.Errorf("precinct: completion record %s: %w", path, err)
	}
	want, err := json.Marshal(s)
	if err != nil {
		return doneRecord{}, false, fmt.Errorf("precinct: encode scenario: %w", err)
	}
	got, err := json.Marshal(rec.Scenario)
	if err != nil {
		return doneRecord{}, false, fmt.Errorf("precinct: completion record %s: %w", path, err)
	}
	if !bytes.Equal(want, got) {
		return doneRecord{}, false, fmt.Errorf("precinct: completion record %s was written by a different scenario", path)
	}
	return rec, true, nil
}

// scenarioMatches verifies a snapshot belongs to the given scenario.
func scenarioMatches(snap *checkpoint.Snapshot, s Scenario) error {
	want, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("precinct: encode scenario: %w", err)
	}
	if !bytes.Equal(want, snap.Meta.Scenario) {
		return fmt.Errorf("precinct: snapshot was written by a different scenario")
	}
	return nil
}

// ckptWriter is the after-event observer that drives periodic
// checkpointing: once the clock passes the next mark it writes a snapshot
// at the first quiescent boundary, atomically replacing the previous one.
type ckptWriter struct {
	b        *built
	path     string
	interval float64
	next     float64
	stopAt   float64 // 0 = run to completion
	stopped  bool
	err      error
}

func (w *ckptWriter) hook(now float64) {
	if w.err != nil || w.stopped {
		return
	}
	stopDue := w.stopAt > 0 && now >= w.stopAt
	if now < w.next && !stopDue {
		return
	}
	if !w.b.sched.Quiescent() {
		return // a request or frame is in flight; wait for the next boundary
	}
	snap, err := w.b.capture()
	if err != nil {
		w.err = err
		w.b.sched.Stop()
		return
	}
	if err := checkpoint.WriteFile(w.path, snap); err != nil {
		w.err = err
		w.b.sched.Stop()
		return
	}
	w.next = now + w.interval
	if stopDue {
		w.stopped = true
		w.b.sched.Stop()
	}
}

// invariantReportOf converts a finished runner into the public report.
func invariantReportOf(runner *invariant.Runner) InvariantReport {
	inv := InvariantReport{
		Sweeps:          runner.Sweeps(),
		Events:          runner.Events(),
		TotalViolations: runner.Total(),
	}
	for _, v := range runner.Violations() {
		inv.Violations = append(inv.Violations, InvariantViolation(v))
	}
	return inv
}

// RunCheckpointed executes the scenario like Run while writing periodic
// snapshots into opts.Dir, so a killed process can pick the run back up
// with opts.Resume instead of starting over. Checkpointing is invisible
// to the simulation — the Result is bit-identical to Run's, a property
// the test suite proves by resuming mid-run and comparing.
func RunCheckpointed(s Scenario, opts CheckpointOptions) (Result, error) {
	res, _, err := runCheckpointed(s, opts, false)
	return res, err
}

// RunCheckpointedChecked is RunCheckpointed with the runtime invariant
// catalog attached (see RunChecked). A run resumed from a checked
// snapshot re-arms the recorded sweep schedule; the invariant report of
// a resumed run covers only the resumed segment.
func RunCheckpointedChecked(s Scenario, opts CheckpointOptions) (Result, InvariantReport, error) {
	return runCheckpointed(s, opts, true)
}

func runCheckpointed(s Scenario, opts CheckpointOptions, check bool) (Result, InvariantReport, error) {
	if s.Shards > 1 {
		return Result{}, InvariantReport{}, fmt.Errorf("precinct: checkpointing a sharded run is not supported; run with Shards <= 1")
	}
	if opts.Dir == "" {
		return Result{}, InvariantReport{}, fmt.Errorf("precinct: checkpoint directory not set")
	}
	info, err := os.Stat(opts.Dir)
	if err != nil {
		return Result{}, InvariantReport{}, fmt.Errorf("precinct: checkpoint directory: %w", err)
	}
	if !info.IsDir() {
		return Result{}, InvariantReport{}, fmt.Errorf("precinct: checkpoint path %s is not a directory", opts.Dir)
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = 60
	}
	label := opts.Label
	if label == "" {
		label = deriveLabel(s)
	}
	ckptPath := filepath.Join(opts.Dir, label+".ckpt")
	donePath := filepath.Join(opts.Dir, label+".done")

	if opts.Resume {
		rec, ok, err := readDone(donePath, s)
		if err != nil {
			return Result{}, InvariantReport{}, err
		}
		// A finished unchecked run is re-executed when checking is now
		// requested: results are bit-identical either way, but the stored
		// record has no invariant report to return.
		if ok && (!check || rec.Checked) {
			return rec.Result, rec.Invariants, nil
		}
	}

	var tracer trace.Tracer
	var tw *trace.Writer
	if opts.TraceWriter != nil {
		tw = trace.NewWriter(opts.TraceWriter)
		tracer = tw
	}

	var b *built
	var runner *invariant.Runner
	if opts.Resume {
		snap, err := checkpoint.ReadFile(ckptPath)
		switch {
		case err == nil:
			if err := scenarioMatches(snap, s); err != nil {
				return Result{}, InvariantReport{}, fmt.Errorf("%w (label %q)", err, label)
			}
			if check || snapHasSweep(snap) {
				runner = invariant.New(invariant.Config{})
			}
			b, err = restoreSnapshot(snap, tracer, runner)
			if err != nil {
				return Result{}, InvariantReport{}, fmt.Errorf("precinct: resume from %s: %w", ckptPath, err)
			}
			if runner != nil && check && !snapHasSweep(snap) {
				runner.ArmSweepAt(b.sched.Now() + runner.SweepInterval())
			}
		case errors.Is(err, fs.ErrNotExist):
			// No snapshot: start fresh below.
		default:
			return Result{}, InvariantReport{}, err
		}
	}
	if b == nil {
		b, err = s.buildFull(tracer, true)
		if err != nil {
			return Result{}, InvariantReport{}, err
		}
		if check {
			if err := debugBreakEnv(b); err != nil {
				return Result{}, InvariantReport{}, err
			}
			runner = invariant.New(invariant.Config{})
			runner.Attach(invariant.Context{
				Net:     b.network,
				Ch:      b.channel,
				Meter:   b.meter,
				Sched:   b.sched,
				Catalog: b.catalog,
			})
		}
	}

	w := &ckptWriter{
		b:        b,
		path:     ckptPath,
		interval: interval,
		next:     b.sched.Now() + interval,
		stopAt:   opts.StopAfter,
	}
	b.sched.AddAfterEvent(w.hook)
	rep := b.network.Run(s.Duration)
	if tw != nil {
		if ferr := tw.Flush(); ferr != nil {
			return Result{}, InvariantReport{}, ferr
		}
	}
	if w.err != nil {
		return Result{}, InvariantReport{}, fmt.Errorf("precinct: checkpoint: %w", w.err)
	}
	res := Result{
		Scenario: s,
		Report:   fromMetrics(rep),
		Protocol: fromStats(b.network.Stats()),
		Radio:    fromRadio(b.channel.Stats()),
	}
	if w.stopped {
		// Interrupted by StopAfter: the snapshot is on disk, the run is
		// incomplete, so no completion record is written.
		return res, InvariantReport{}, nil
	}
	var inv InvariantReport
	if runner != nil {
		runner.Finalize()
		inv = invariantReportOf(runner)
	}
	if err := writeDone(donePath, doneRecord{Scenario: s, Result: res, Checked: runner != nil, Invariants: inv}); err != nil {
		return res, inv, err
	}
	os.Remove(ckptPath) // the completion record supersedes the snapshot
	return res, inv, nil
}

// SweepCheckpointed is Sweep with per-scenario checkpointing: each
// scenario writes snapshots under a label derived from its index and
// contents, and with opts.Resume a re-run of the same sweep skips
// finished scenarios and resumes interrupted ones from their last
// snapshot. opts.Label, when set, prefixes every scenario's label.
func SweepCheckpointed(scenarios []Scenario, workers int, opts CheckpointOptions) ([]Result, error) {
	if len(scenarios) == 0 {
		return nil, nil
	}
	results := make([]Result, len(scenarios))
	err := runPool(len(scenarios), workers, func(i int) error {
		o := opts
		o.Label = fmt.Sprintf("s%04d-%s", i, deriveLabel(scenarios[i]))
		if opts.Label != "" {
			o.Label = opts.Label + "-" + o.Label
		}
		var err error
		results[i], err = RunCheckpointed(scenarios[i], o)
		if err != nil {
			return fmt.Errorf("precinct: scenario %d (%s): %w", i, scenarios[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ReplayOptions parameterizes Replay.
type ReplayOptions struct {
	// Until is the simulated-time horizon; 0 replays to the scenario's
	// configured Duration.
	Until float64
	// Check attaches the runtime invariant catalog to the replayed
	// segment. Snapshots taken from checked runs are always replayed
	// checked, preserving the recorded sweep schedule.
	Check bool
	// TraceWriter, when non-nil, receives the replayed segment's protocol
	// events as JSON lines.
	TraceWriter io.Writer
}

// Replay restores a snapshot file and re-runs it forward. Because the
// simulation is deterministic, the replayed segment reproduces exactly
// what the original run did after the snapshot — with tracing or
// invariant checking attached after the fact, which is the point: debug
// instrumentation on a failure window without re-running the whole
// history before it.
func Replay(path string, o ReplayOptions) (Result, InvariantReport, error) {
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		return Result{}, InvariantReport{}, err
	}
	var tracer trace.Tracer
	var tw *trace.Writer
	if o.TraceWriter != nil {
		tw = trace.NewWriter(o.TraceWriter)
		tracer = tw
	}
	var runner *invariant.Runner
	if o.Check || snapHasSweep(snap) {
		runner = invariant.New(invariant.Config{})
	}
	b, err := restoreSnapshot(snap, tracer, runner)
	if err != nil {
		return Result{}, InvariantReport{}, err
	}
	if runner != nil && !snapHasSweep(snap) {
		runner.ArmSweepAt(b.sched.Now() + runner.SweepInterval())
	}
	until := o.Until
	if until <= 0 {
		until = b.scenario.Duration
	}
	if until < b.sched.Now() {
		return Result{}, InvariantReport{}, fmt.Errorf("precinct: replay horizon %v is before the snapshot time %v",
			until, b.sched.Now())
	}
	rep := b.network.Run(until)
	var inv InvariantReport
	if runner != nil {
		runner.Finalize()
		inv = invariantReportOf(runner)
	}
	res := Result{
		Scenario: b.scenario,
		Report:   fromMetrics(rep),
		Protocol: fromStats(b.network.Stats()),
		Radio:    fromRadio(b.channel.Stats()),
	}
	if tw != nil {
		if ferr := tw.Flush(); ferr != nil {
			return res, inv, ferr
		}
	}
	return res, inv, nil
}

// runDigest is a comparable fingerprint of a run's observable protocol
// state, taken between individual events during bisection. It covers the
// clock, counters, ground truth, every peer's caches and custody, the
// radio and the energy account — but deliberately not the mobility
// anchors or RNG internals, whose in-memory representation legitimately
// differs between two restores (positions are advanced lazily on
// query, which bisection's own inspection would otherwise perturb).
type runDigest struct {
	Now      float64
	Executed uint64
	Pending  int
	Truth    uint64
	Peers    uint64
	Net      node.Stats
	Radio    radio.Stats
	Energy   float64
}

// digest fingerprints the current state.
func (b *built) digest() runDigest {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, k := range b.catalog.Keys() {
		w64(b.network.Truth(k))
	}
	truth := h.Sum64()

	h = fnv.New64a()
	for i := 0; i < b.network.Peers(); i++ {
		p := b.network.Peer(radio.NodeID(i))
		alive := uint64(0)
		if p.Alive() {
			alive = 1
		}
		w64(alive)
		w64(uint64(p.RegionID()))
		w64(uint64(p.TableVersion()))
		st := p.Store()
		for _, k := range st.Keys() {
			it, _ := st.Get(k)
			w64(uint64(k))
			w64(it.Version)
			w64(math.Float64bits(it.TTR))
			w64(math.Float64bits(it.UpdatedAt))
		}
		if c := p.Cache(); c != nil {
			w64(uint64(c.Used()))
			w64(c.Hits())
			w64(c.Misses())
			w64(c.Evictions())
			w64(math.Float64bits(c.Inflation()))
			for _, k := range c.Keys() {
				w64(uint64(k))
			}
		}
	}
	peers := h.Sum64()

	return runDigest{
		Now:      b.sched.Now(),
		Executed: b.sched.Executed(),
		Pending:  b.network.PendingRequests(),
		Truth:    truth,
		Peers:    peers,
		Net:      b.network.Stats(),
		Radio:    b.channel.Stats(),
		Energy:   b.meter.Total(),
	}
}

// diffDigest names the fields that differ between two digests.
func diffDigest(a, b runDigest) string {
	var parts []string
	add := func(name string, av, bv any) {
		parts = append(parts, fmt.Sprintf("%s: %v vs %v", name, av, bv))
	}
	if a.Now != b.Now {
		add("clock", a.Now, b.Now)
	}
	if a.Executed != b.Executed {
		add("events executed", a.Executed, b.Executed)
	}
	if a.Pending != b.Pending {
		add("pending requests", a.Pending, b.Pending)
	}
	if a.Truth != b.Truth {
		add("ground-truth hash", fmt.Sprintf("%016x", a.Truth), fmt.Sprintf("%016x", b.Truth))
	}
	if a.Peers != b.Peers {
		add("peer-state hash", fmt.Sprintf("%016x", a.Peers), fmt.Sprintf("%016x", b.Peers))
	}
	if a.Net != b.Net {
		add("protocol stats", a.Net, b.Net)
	}
	if a.Radio != b.Radio {
		add("radio stats", a.Radio, b.Radio)
	}
	if a.Energy != b.Energy {
		add("energy total", a.Energy, b.Energy)
	}
	if len(parts) == 0 {
		return "digests equal"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "; " + p
	}
	return out
}

// Divergence is BisectSnapshots' verdict.
type Divergence struct {
	// Found reports whether the two replays ever disagreed.
	Found bool
	// Step counts events executed past the common snapshot time when the
	// digests first differed; 0 means the snapshots themselves disagree.
	Step uint64
	// Time is the simulation time of the first divergent event.
	Time float64
	// Detail names the digest fields that differ.
	Detail string
}

// String renders a one-line verdict.
func (d Divergence) String() string {
	if !d.Found {
		return fmt.Sprintf("no divergence through %d events (t=%.6f)", d.Step, d.Time)
	}
	if d.Step == 0 {
		return fmt.Sprintf("snapshots differ before any event runs: %s", d.Detail)
	}
	return fmt.Sprintf("first divergent event: #%d at t=%.6f (%s)", d.Step, d.Time, d.Detail)
}

// BisectSnapshots restores two snapshots of the same scenario at the
// same simulated time and replays them in lockstep, one event at a time,
// comparing a state digest after every event. It reports the first event
// after which the two runs disagree — the tool for "these two runs were
// supposed to be identical; where exactly did they split?". until <= 0
// replays to the scenario's Duration.
func BisectSnapshots(pathA, pathB string, until float64) (Divergence, error) {
	snapA, err := checkpoint.ReadFile(pathA)
	if err != nil {
		return Divergence{}, err
	}
	snapB, err := checkpoint.ReadFile(pathB)
	if err != nil {
		return Divergence{}, err
	}
	if !bytes.Equal(snapA.Meta.Scenario, snapB.Meta.Scenario) {
		return Divergence{}, fmt.Errorf("precinct: snapshots come from different scenarios; bisection needs two captures of the same run")
	}
	if snapA.Meta.SimTime != snapB.Meta.SimTime {
		return Divergence{}, fmt.Errorf("precinct: snapshots taken at different times (%v vs %v); bisection needs a common starting point",
			snapA.Meta.SimTime, snapB.Meta.SimTime)
	}
	restore := func(snap *checkpoint.Snapshot, path string) (*built, error) {
		var runner *invariant.Runner
		if snapHasSweep(snap) {
			runner = invariant.New(invariant.Config{})
		}
		b, err := restoreSnapshot(snap, nil, runner)
		if err != nil {
			return nil, fmt.Errorf("precinct: restore %s: %w", path, err)
		}
		return b, nil
	}
	bA, err := restore(snapA, pathA)
	if err != nil {
		return Divergence{}, err
	}
	bB, err := restore(snapB, pathB)
	if err != nil {
		return Divergence{}, err
	}
	if until <= 0 {
		until = bA.scenario.Duration
	}

	dA, dB := bA.digest(), bB.digest()
	if dA != dB {
		return Divergence{Found: true, Step: 0, Time: bA.sched.Now(), Detail: diffDigest(dA, dB)}, nil
	}
	var step uint64
	for {
		okA := bA.sched.Step(until)
		okB := bB.sched.Step(until)
		if okA != okB {
			return Divergence{
				Found: true, Step: step + 1, Time: math.Max(bA.sched.Now(), bB.sched.Now()),
				Detail: "one run ran out of events before the other",
			}, nil
		}
		if !okA {
			return Divergence{Found: false, Step: step, Time: bA.sched.Now()}, nil
		}
		step++
		dA, dB = bA.digest(), bB.digest()
		if dA != dB {
			return Divergence{Found: true, Step: step, Time: bA.sched.Now(), Detail: diffDigest(dA, dB)}, nil
		}
	}
}
