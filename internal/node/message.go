package node

import (
	"fmt"

	"precinct/internal/geo"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/routing"
	"precinct/internal/workload"
)

// msgKind discriminates protocol messages.
type msgKind int

const (
	// Retrieval.
	kindSearchFlood    msgKind = iota // network-wide flood (flooding / expanding ring)
	kindRegionalSearch                // broadcast within the requester's region
	kindRoutedSearch                  // GPSR-routed request toward the home region
	kindHomeFlood                     // localized flood inside the destination region
	kindReply                         // GPSR-routed data response

	// Consistency.
	kindInvalidate  // plain-push network-wide invalidation flood
	kindUpdateRoute // GPSR-routed update push toward home/replica region
	kindUpdateFlood // localized flood of an update inside a region
	kindPollRoute   // GPSR-routed TTR/validation poll
	kindPollFlood   // localized flood of a poll inside the home region
	kindPollReply   // GPSR-routed poll answer

	// Region maintenance.
	kindHandoff // key transfer on inter-region mobility
)

// String implements fmt.Stringer for diagnostics.
func (k msgKind) String() string {
	switch k {
	case kindSearchFlood:
		return "search-flood"
	case kindRegionalSearch:
		return "regional-search"
	case kindRoutedSearch:
		return "routed-search"
	case kindHomeFlood:
		return "home-flood"
	case kindReply:
		return "reply"
	case kindInvalidate:
		return "invalidate"
	case kindUpdateRoute:
		return "update-route"
	case kindUpdateFlood:
		return "update-flood"
	case kindPollRoute:
		return "poll-route"
	case kindPollFlood:
		return "poll-flood"
	case kindPollReply:
		return "poll-reply"
	case kindHandoff:
		return "handoff"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// class returns the accounting bucket of the message kind.
func (k msgKind) class() trafficClass {
	switch k {
	case kindInvalidate, kindUpdateRoute, kindUpdateFlood, kindPollRoute, kindPollFlood, kindPollReply:
		return classControl
	case kindHandoff:
		return classMaintenance
	default:
		return classSearch
	}
}

type trafficClass int

const (
	classSearch trafficClass = iota
	classControl
	classMaintenance
)

// handoffItem is one key being transferred between peers.
type handoffItem struct {
	Key       workload.Key
	Size      int
	Version   uint64
	UpdatedAt float64
	TTR       float64
	// ReplicaRank is 0 for the primary copy and r >= 1 for the copy
	// belonging to the key's rank-r replica region.
	ReplicaRank int
}

// message is the single protocol payload type; fields are used according
// to Kind.
//
// Lifecycle (DESIGN.md section 12): messages come from the network's
// pool (newMsg) and carry an ownership reference count. Unicast transfers
// the single reference from sender to channel to receiver — the receiver
// mutates the message in place (Hops, TTL, routing state) instead of
// cloning per hop. Broadcast shares one payload across all scheduled
// receivers (refs = delivered count); each receiver either drops its
// reference (duplicate fast path, mid-flight loss) or exchanges it for a
// private header copy. Every handler consumes its message exactly once:
// release it, stash it (pendingReply), or hand it to broadcast/unicast.
type message struct {
	Kind msgKind
	// ID identifies the request for matching replies to pending
	// requests.
	ID uint64
	// FloodID identifies one flood wave for deduplication; expanding
	// ring rounds of the same request carry distinct flood IDs.
	FloodID uint64
	Key     workload.Key

	// Origin is the peer the answer must return to, and its position at
	// issue time (the GPSR destination for replies).
	Origin    radio.NodeID
	OriginPos geo.Point
	// OriginRegion is the requester's region at issue time (admission
	// control and regional-hit classification).
	OriginRegion region.ID

	// TargetRegion/TargetPos direct region-routed messages.
	TargetRegion region.ID
	TargetPos    geo.Point
	// TargetNode addresses node-routed messages (handoffs) that must
	// reach one specific peer rather than a region.
	TargetNode    radio.NodeID
	HasTargetNode bool

	TTL  int
	Hops int
	// Retries counts route-retry attempts for update pushes, which have
	// no end-to-end timeout to recover them.
	Retries int
	// Route is the GPSR packet state for unicast legs.
	Route routing.State

	// Version and TTR travel on replies, updates and poll replies.
	Version uint64
	TTR     float64
	// Size is the data payload size for replies and updates, bytes.
	Size int

	// ServerRegion is the region of the peer that answered (replies).
	ServerRegion region.ID
	// EnRoute marks replies served by an intermediate peer on the way
	// to the home region.
	EnRoute bool
	// FromStore marks replies served from a static store (authoritative
	// copy); cache-served replies need validation under Pull-Every-time.
	FromStore bool
	// CachedVersion is the requester's version in validation polls, so
	// the home region can answer "still valid" cheaply.
	CachedVersion uint64

	// Items carries key transfers (handoff).
	Items []handoffItem

	// refs counts outstanding ownership references: 1 for owned/unicast
	// messages, the delivered-receiver count for shared broadcast
	// payloads.
	refs int32
	// released marks a message currently sitting in the pool's freelist;
	// releasing it again is a lifecycle bug and panics.
	released bool

	// rec references the record of the message's flood in the replica
	// that holds the message (see markSeen); it is valid while recGen
	// matches the record's generation. Header copies inherit it.
	rec    *floodRec
	recGen uint32
}

// wireSize returns the on-air payload size in bytes for accounting and
// energy purposes. Control-plane messages cost controlBytes;
// data-bearing messages cost their data size plus that envelope.
func (m *message) wireSize() int {
	switch m.Kind {
	case kindReply, kindUpdateRoute, kindUpdateFlood:
		return controlBytes + m.Size
	case kindHandoff:
		total := controlBytes
		for _, it := range m.Items {
			total += it.Size
		}
		return total
	default:
		return controlBytes
	}
}

// msgPool is the sim-local message freelist. One pool serves one Network
// (the simulation core is single-threaded, so no sync.Pool machinery is
// needed — and sim-local reuse keeps runs deterministic and boxes warm
// in cache). poison (PRECINCT_DEBUG=poison) scrambles released messages
// so use-after-release fails loudly instead of silently corrupting a run.
type msgPool struct {
	free   []*message
	poison bool

	acquired uint64 // messages handed out (newMsg + delivery header copies)
	released uint64 // messages whose last reference was dropped
}

// acquire returns a message box; contents are arbitrary — every caller
// overwrites the whole struct.
func (pl *msgPool) acquire() *message {
	pl.acquired++
	n := len(pl.free)
	if n == 0 {
		return &message{}
	}
	m := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	return m
}

// unref drops one ownership reference, returning the box to the freelist
// when the last reference is gone. Releasing an already-released message
// panics — that is a lifecycle bug (double release), never load.
func (pl *msgPool) unref(m *message) {
	if m.released {
		panic("node: pooled message released twice")
	}
	if m.refs > 1 {
		m.refs--
		return
	}
	if m.refs < 1 {
		panic("node: pooled message released with no outstanding reference")
	}
	m.refs = 0
	m.released = true
	m.Items = nil // never pin a handoff payload from the freelist
	m.rec = nil
	if pl.poison {
		poisonMsg(m)
	}
	pl.released++
	pl.free = append(pl.free, m)
}

// live returns the number of messages currently owned by the run: at a
// quiescent boundary it equals the number of stashed pendingReply
// messages (every other message has been delivered, dropped or released).
func (pl *msgPool) live() uint64 { return pl.acquired - pl.released }

// poisonMsg scrambles every semantic field of a released message (refs
// and released are preserved — they are the detection state). A handler
// touching a poisoned message dispatches on an impossible kind, routes
// to node -1, or trips TTL/version checks — loud, immediate failures.
func poisonMsg(m *message) {
	const poisoned = 0xdeaddead_deaddead
	m.Kind = msgKind(-0xbad)
	m.ID = poisoned
	m.FloodID = poisoned
	m.Key = 0
	m.Origin = -1
	m.TargetNode = -1
	m.HasTargetNode = false
	m.TTL = -1 << 30
	m.Hops = -1 << 30
	m.Retries = -1 << 30
	m.Version = poisoned
	m.TTR = -1e300
	m.Size = -1 << 30
	m.CachedVersion = poisoned
}
