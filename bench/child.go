package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"precinct"
)

// Every measurement runs in a fresh child process (the bench re-execs
// itself), so GC state and VmHWM belong to one run: in a shared process
// the second run's peak reads ~35% above the first's.

// childEnv marks a re-exec'd process as a measurement child.
const childEnv = "PRECINCT_BENCH_CHILD"

// childRequest is the child's whole input, sent as JSON on stdin.
type childRequest struct {
	// Mode is "run", "traced", "setup" or "layers".
	Mode     string
	Scale    string
	Workload string
	// Shards, when above 1, runs the workload's scenario on that many
	// shards; 0 is the sequential scheduler every workload is timed on.
	Shards int
	Seed   int64
	// Drive carries what the isolated drives need from the timed runs.
	Drive driveInputs
}

// runRecord is what one whole-scenario run reports.
type runRecord struct {
	WallS      float64
	PeakRSSMiB float64
	Mallocs    uint64
	AllocBytes uint64
	// TraceEvents counts the JSON lines a traced run emitted.
	TraceEvents uint64
	Digest      string
	Stats       precinct.RunStats
	Report      precinct.Report
	Protocol    precinct.ProtocolStats
	Radio       precinct.RadioStats
}

// childResult is the child's whole output, one JSON object on stdout.
type childResult struct {
	Run *runRecord `json:",omitempty"`
	// Setup holds seconds per Scenario.Validate call.
	Setup []float64 `json:",omitempty"`
	// Layers maps drive name to nanoseconds per operation.
	Layers map[string]float64 `json:",omitempty"`
	Spans  []span             `json:",omitempty"`
	Err    string             `json:",omitempty"`
}

// spawnChild re-executes this binary as a measurement child and waits
// for it.
func spawnChild(req childRequest) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, fmt.Errorf("locate own executable: %w", err)
	}
	in, err := json.Marshal(req)
	if err != nil {
		return childResult{}, fmt.Errorf("encode child request: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("child %s/%s: %w", req.Workload, req.Mode, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return childResult{}, fmt.Errorf("child %s/%s: decode output: %w", req.Workload, req.Mode, err)
	}
	if res.Err != "" {
		return childResult{}, fmt.Errorf("child %s/%s: %s", req.Workload, req.Mode, res.Err)
	}
	return res, nil
}

// childMain serves one request and reports failures inside the result,
// so the parent can count them as failed runs.
func childMain(stdin io.Reader, stdout io.Writer) int {
	var req childRequest
	res, err := childResult{}, json.NewDecoder(stdin).Decode(&req)
	if err == nil {
		res, err = serve(req)
	}
	if err != nil {
		res = childResult{Err: err.Error()}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

func serve(req childRequest) (childResult, error) {
	sc, err := scaleFor(req.Scale)
	if err != nil {
		return childResult{}, err
	}
	w, ok := findWorkload(sc.Workloads, req.Workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", req.Workload)
	}
	s := w.scenario(req.Seed)
	s.Shards = req.Shards
	switch req.Mode {
	case "run", "traced":
		rec, err := runOnce(s, req.Mode == "traced")
		return childResult{Run: &rec}, err
	case "setup":
		setup, err := timeSetup(s, sc.SetupFillS)
		return childResult{Setup: setup}, err
	case "layers":
		layers, spans, err := driveLayers(s, req.Drive, sc.DriveMS)
		return childResult{Layers: layers, Spans: spans}, err
	}
	return childResult{}, fmt.Errorf("unknown child mode %q", req.Mode)
}

// lineCounter is the counting sink of the traced run: it keeps nothing,
// so RunTraced's extra time is the tracer's own.
type lineCounter struct{ lines uint64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += uint64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// runOnce times one whole RunWithStats (or RunTraced) call: build, event
// loop and report.
func runOnce(s precinct.Scenario, traced bool) (runRecord, error) {
	var (
		before, after runtime.MemStats
		res           precinct.Result
		rec           runRecord
		err           error
	)
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if traced {
		var sink lineCounter
		res, err = precinct.RunTraced(s, &sink)
		rec.TraceEvents = sink.lines
	} else {
		res, rec.Stats, err = precinct.RunWithStats(s)
	}
	rec.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return rec, err
	}
	rec.PeakRSSMiB = peakRSSMiB()
	rec.Mallocs = after.Mallocs - before.Mallocs
	rec.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rec.Report, rec.Protocol, rec.Radio = res.Report, res.Protocol, res.Radio
	rec.Digest, err = resultDigest(res)
	return rec, err
}

// resultDigest is the SHA-256 of the canonical JSON of the run's
// outputs. The Scenario is left out so a sharded run and its sequential
// reference can be compared.
func resultDigest(res precinct.Result) (string, error) {
	canon, err := json.Marshal(struct {
		Report   precinct.Report
		Protocol precinct.ProtocolStats
		Radio    precinct.RadioStats
	}{res.Report, res.Protocol, res.Radio})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// timeSetup times Scenario.Validate, which performs the same build a run
// does and discards it. Small builds are repeated for fillS seconds so
// the median settles.
func timeSetup(s precinct.Scenario, fillS float64) ([]float64, error) {
	const minCalls, maxCalls = 3, 200
	var out []float64
	start := time.Now()
	for len(out) < minCalls || (len(out) < maxCalls && time.Since(start).Seconds() < fillS) {
		t0 := time.Now()
		if err := s.Validate(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs;
// 0 where procfs is missing.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
