package node

// Sharded-run support: a parallel run gives every shard a replica of the
// Network that shares the protocol state (peers, region table, ground
// truth, catalog, workload) but owns its shard's scheduler, radio
// channel, collector, energy meter, tracer, GPSR router and message
// pool. Each peer is owned by exactly one shard; its net field binds it
// to that shard's replica, so every peer-local mutation happens on one
// goroutine. Shared state is only mutated by global (execAs -1) events,
// which the parallel coordinator executes while all shard workers are
// parked at a barrier.

import (
	"fmt"

	"precinct/internal/cache"
	"precinct/internal/energy"
	"precinct/internal/metrics"
	"precinct/internal/radio"
	"precinct/internal/sim"
	"precinct/internal/trace"
)

// ShardWorld bundles the per-shard substrate replicas a Network clone
// executes on. The scheduler must share the primary scheduler's counter
// set, and the channel must be built over a mobility replica seeded
// identically to the primary's.
type ShardWorld struct {
	Scheduler *sim.Scheduler
	Channel   *radio.Channel
	Collector *metrics.Collector
	Meter     *energy.Meter
	Tracer    trace.Tracer
}

// CloneForShard returns a shard replica of the network. The replica
// shares peers, table, truth, catalog and workload with the primary
// and starts with zeroed counters of its own; EnableSharding must be
// called afterwards to bind peers to their owners.
func (n *Network) CloneForShard(w ShardWorld) (*Network, error) {
	if w.Scheduler == nil || w.Channel == nil || w.Collector == nil {
		return nil, fmt.Errorf("node: shard world needs scheduler, channel and collector")
	}
	if w.Channel.N() != len(n.peers) {
		return nil, fmt.Errorf("node: shard channel has %d nodes, network has %d", w.Channel.N(), len(n.peers))
	}
	if (w.Meter == nil) != (n.meter == nil) {
		return nil, fmt.Errorf("node: shard meter presence must match the primary's")
	}
	c := &Network{
		cfg:     n.cfg,
		sched:   w.Scheduler,
		ch:      w.Channel,
		table:   n.table,
		catalog: n.catalog,
		src:     n.src,
		arr:     n.arr,
		coll:    w.Collector,
		meter:   w.Meter,
		rng:     n.rng,
		tracer:  w.Tracer,
		peers:   n.peers,
		live:    n.live,
		truth:   n.truth,
		started: true,
	}
	c.loc = chanLocator{c.ch}
	c.ch.SetLiveness(n.live)
	c.ch.SetHandler(c.handleFrame)
	c.pool.poison = n.pool.poison
	c.ch.SetDropHandler(c.handleDrop)
	c.router.EnablePlanarCache(c.ch.N())
	return c, nil
}

// EnableSharding binds every peer to its owner shard's replica and puts
// each replica's channel in sharded mode. clones[0] must be the network
// this is called on (the primary, running shard 0); shardOf maps each
// peer to its owner shard.
func (n *Network) EnableSharding(shardOf []int32, clones []*Network) error {
	if len(clones) == 0 || clones[0] != n {
		return fmt.Errorf("node: clones[0] must be the primary network")
	}
	if len(shardOf) != len(n.peers) {
		return fmt.Errorf("node: shard map covers %d peers, network has %d", len(shardOf), len(n.peers))
	}
	for i, s := range shardOf {
		if s < 0 || int(s) >= len(clones) {
			return fmt.Errorf("node: peer %d assigned to shard %d of %d", i, s, len(clones))
		}
	}
	for i, c := range clones {
		c.clones = clones
		c.shard = int32(i)
		c.floods.timed = true // a cloned payload carries no reference to count
		c.ch.EnableSharding(shardOf, int32(i), c.clonePayload)
	}
	for _, p := range n.peers {
		p.net = clones[shardOf[p.id]]
	}
	return nil
}

// clonePayload deep-copies a broadcast payload that crosses to another
// shard: remote receivers cannot share the sender-side reference count,
// so each gets an owned box from the sender shard's pool (released,
// after delivery, into the receiver shard's — the pools' live counts are
// only meaningful summed, see MsgPoolLive).
func (n *Network) clonePayload(payload any) any {
	m, ok := payload.(*message)
	if !ok {
		return payload
	}
	cp := n.pool.acquire()
	*cp = *m
	if m.Items != nil {
		cp.Items = append([]cache.StoredItem(nil), m.Items...)
	}
	cp.refs = 1
	cp.released = false
	cp.rec = nil // the receiver's replica keeps its own flood records
	return cp
}

// StartParallel performs the first-Run work of the sequential path for a
// sharded run: it marks the replicas started, arms every peer's driver
// loops in ascending peer order and schedules the warmup meter reset.
// The parallel coordinator calls it once, single-threaded, before the
// first window, so the canonical keys of the initial events match the
// sequential run's exactly.
func (n *Network) StartParallel(duration float64) {
	for _, c := range n.clones {
		c.started = true
	}
	n.started = true
	n.StartDrivers()
	if n.meter != nil && n.cfg.Warmup > 0 && n.cfg.Warmup <= duration {
		n.armMeterReset(n.cfg.Warmup)
	}
}
