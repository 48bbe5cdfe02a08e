//go:build soak

package precinct_test

// The 100k-node memory-ceiling soak (DESIGN.md section 14): the largest
// tier the struct-of-arrays layout is specified against. One 100000-node
// run at the paper's density with 30% frame loss and the hybrid
// consistency scheme — the exact acceptance shape `precinct-sim check
// -scale -max-nodes 100000 -start 8` replays — executed under the full runtime
// invariant catalog while a sampler watches the process's resident set.
// The run must finish clean AND hold RSS under the 4 GiB ceiling; a
// layout regression that leaks per-node state shows up here long before
// it breaks correctness. Run via `make soak-100k`.

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
)

// rssCeilingBytes is the steady-state resident-set ceiling the 100k tier
// must hold (ROADMAP scale item; DESIGN.md section 14).
const rssCeilingBytes = 4 << 30

// readRSSBytes reads the process's current resident set from
// /proc/self/status (VmRSS, reported in kB). Returns 0 on platforms
// without procfs, which disables the ceiling assertion.
func readRSSBytes(t *testing.T) uint64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// TestSoak100kRSSCeiling drives the 100000-node acceptance scenario
// under all runtime checkers with a 2-second RSS sampler alongside, and
// requires a clean invariant report, real traffic, and a peak resident
// set at or below the 4 GiB ceiling.
func TestSoak100kRSSCeiling(t *testing.T) {
	sc := fuzzgen.ExpandScale(8, 100000)
	if sc.Nodes != 100000 || sc.LossRate != 0.3 || sc.Consistency != "push-adaptive-pull" {
		t.Fatalf("seed 8 no longer expands to the acceptance shape: n=%d loss=%g cons=%q",
			sc.Nodes, sc.LossRate, sc.Consistency)
	}

	if readRSSBytes(t) == 0 {
		t.Log("no /proc/self/status VmRSS on this platform; ceiling assertion disabled")
	}
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if rss := readRSSBytes(t); rss > peak.Load() {
					peak.Store(rss)
				}
			}
		}
	}()

	res, inv, err := precinct.RunChecked(sc)
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if !inv.Ok() {
		for _, v := range inv.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%s", inv)
	}
	if inv.Sweeps == 0 || inv.Events == 0 {
		t.Fatalf("checkers did not run: %s", inv)
	}
	if res.Report.Requests < 100000 {
		t.Fatalf("only %d requests; the 100k soak is not exercising the system", res.Report.Requests)
	}
	if rss := peak.Load(); rss > rssCeilingBytes {
		t.Errorf("peak RSS %.2f GiB exceeds the %.0f GiB ceiling",
			float64(rss)/(1<<30), float64(rssCeilingBytes)/(1<<30))
	}
	t.Logf("soak-100k: %d requests, hit ratio %.3f, %d sweeps / %d event checks clean, peak RSS %.2f GiB",
		res.Report.Requests, res.Report.ByteHitRatio, inv.Sweeps, inv.Events,
		float64(peak.Load())/(1<<30))
}
