package invariant

import (
	"strings"
	"testing"

	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/mobility"
	"precinct/internal/radio"
	"precinct/internal/sim"
)

// TestConservationHoldsMeterToFrames hands the conservation checker a
// channel that sent one broadcast and one unicast, and a meter charged
// by it, then one charge the channel never made: a doubled send, or an
// addressed reception without a send. Each must be a violation.
func TestConservationHoldsMeterToFrames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra energy.Class
		want  string
	}{
		{"clean", -1, ""},
		{"doubled-broadcast-send", energy.BroadcastSend, "broadcast-send charges 2 > broadcast frames 1"},
		{"doubled-p2p-send", energy.P2PSend, "p2p-send charges 2 > unicast frames 1"},
		{"p2p-recv-without-send", energy.P2PRecv, "p2p-recv charges 2 > p2p-send charges 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mob, err := mobility.NewStatic([]geo.Point{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(200, 0)})
			if err != nil {
				t.Fatal(err)
			}
			meter, err := energy.NewMeter(mob.Len(), energy.DefaultModel())
			if err != nil {
				t.Fatal(err)
			}
			sched := sim.NewScheduler()
			ch, err := radio.New(radio.DefaultConfig(), sched, mob, meter, nil)
			if err != nil {
				t.Fatal(err)
			}
			ch.SetHandler(func(radio.NodeID, radio.Frame) {})
			ch.Broadcast(1, 100, nil)
			ch.Unicast(0, 1, 100, nil)
			sched.RunAll()
			if tc.extra >= 0 {
				meter.Charge(1, tc.extra, 100)
			}

			got := (&ConservationChecker{}).Sweep(&Context{Ch: ch, Meter: meter})
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("clean run reported %q", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], tc.want) {
				t.Fatalf("got %q, want one violation naming %q", got, tc.want)
			}
		})
	}
}
