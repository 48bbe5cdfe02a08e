package node

import (
	"testing"
	"testing/quick"

	"precinct/internal/cache"
	"precinct/internal/routing"
)

func TestMsgKindStrings(t *testing.T) {
	kinds := []msgKind{
		kindSearchFlood, kindRegionalSearch, kindRoutedSearch, kindHomeFlood,
		kindReply, kindInvalidate, kindUpdateRoute, kindUpdateFlood,
		kindPollRoute, kindPollFlood, kindPollReply, kindHandoff,
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty or duplicate string %q", int(k), s)
		}
		seen[s] = true
	}
	if msgKind(99).String() != "kind(99)" {
		t.Error("unknown kind string")
	}
}

func TestMsgKindClasses(t *testing.T) {
	control := []msgKind{kindInvalidate, kindUpdateRoute, kindUpdateFlood, kindPollRoute, kindPollFlood, kindPollReply}
	for _, k := range control {
		if k.class() != classControl {
			t.Errorf("%v not classified control", k)
		}
	}
	if kindHandoff.class() != classMaintenance {
		t.Error("handoff not maintenance")
	}
	search := []msgKind{kindSearchFlood, kindRegionalSearch, kindRoutedSearch, kindHomeFlood, kindReply}
	for _, k := range search {
		if k.class() != classSearch {
			t.Errorf("%v not classified search", k)
		}
	}
}

func TestWireSize(t *testing.T) {
	const ctrl = 64
	small := &message{Kind: kindRegionalSearch, Size: 9999}
	if got := small.wireSize(); got != ctrl {
		t.Errorf("control message size %d, want %d (Size field ignored)", got, ctrl)
	}
	reply := &message{Kind: kindReply, Size: 4096}
	if got := reply.wireSize(); got != ctrl+4096 {
		t.Errorf("reply size %d", got)
	}
	update := &message{Kind: kindUpdateFlood, Size: 2048}
	if got := update.wireSize(); got != ctrl+2048 {
		t.Errorf("update size %d", got)
	}
	handoff := &message{Kind: kindHandoff, Items: []cache.StoredItem{{Size: 100}, {Size: 200}}}
	if got := handoff.wireSize(); got != ctrl+300 {
		t.Errorf("handoff size %d", got)
	}
}

// clonePayloadForTest deep-copies m through a bare network's pool, the
// way a broadcast crossing to another shard does.
func clonePayloadForTest(t *testing.T, m *message) *message {
	t.Helper()
	cp, ok := new(Network).clonePayload(m).(*message)
	if !ok || cp == m {
		t.Fatalf("clonePayload returned %T %p for %p", cp, cp, m)
	}
	if cp.refs != 1 || cp.released {
		t.Fatalf("clone carries refs=%d released=%v, want one live reference", cp.refs, cp.released)
	}
	return cp
}

func TestMessageCloneIndependence(t *testing.T) {
	m := &message{
		Kind: kindHandoff, ID: 1, TTL: 5,
		Route: routing.State{Mode: routing.Perimeter},
		Items: []cache.StoredItem{{Key: 1, Size: 100}},
		refs:  7,
	}
	cp := clonePayloadForTest(t, m)
	cp.TTL = 4
	cp.Route.Mode = routing.Greedy
	cp.Items[0].Size = 999
	if m.TTL != 5 || m.Route.Mode != routing.Perimeter || m.Items[0].Size != 100 || m.refs != 7 {
		t.Error("clone shares state with the original")
	}
}

// Property: cloning preserves every scalar field.
func TestClonePreservesFields(t *testing.T) {
	f := func(id, flood uint64, ttl, hops uint8, version uint64) bool {
		m := &message{
			Kind: kindReply, ID: id, FloodID: flood,
			TTL: int(ttl), Hops: int(hops), Version: version,
		}
		cp := clonePayloadForTest(t, m)
		return cp.ID == m.ID && cp.FloodID == m.FloodID &&
			cp.TTL == m.TTL && cp.Hops == m.Hops && cp.Version == m.Version
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoPendingRequestLeak(t *testing.T) {
	o := defaultHarnessOpts()
	o.generator = true
	o.mobile = true
	o.updateInt = 45
	h := build(t, o)
	h.net.Run(400)
	// Let every in-flight timeout chain resolve: run past the longest
	// possible chain (regional + home + replica timeouts).
	h.sched.Run(450)
	if got := h.net.PendingRequests(); got != 0 {
		t.Errorf("%d requests leaked in the pending table", got)
	}
}
