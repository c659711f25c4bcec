package main

import (
	"time"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
)

// coreCall names a traced call into core.Node.
type coreCall uint8

const (
	callBeginCycle coreCall = iota
	callInject
	callPublish
	callReceive
	callColdStart
	callRejoin
	callCrash
	callLeave
	numCoreCalls
)

var coreCallNames = [numCoreCalls]string{
	"core.begin_cycle", "core.inject_rps", "core.publish", "core.receive",
	"core.cold_start", "core.rejoin", "core.crash", "core.leave",
}

// span is one traced call: what was called and when, in nanoseconds since
// the tracer's epoch. The parent is the engine step it ran in.
type span struct {
	call       coreCall
	dup        bool // a Receive that found the item already seen
	start, end int64
}

// tracedPeer decorates a *core.Node with spans around every call the engine
// makes into it. Embedding forwards every method the decorator does not
// override, so the wrapper implements exactly the optional interfaces
// *core.Node does (Crasher, Leaver, Rejoiner, ColdStarter, DepartureNoticer,
// ProfileAdvertiser) and the engine treats it as it would the bare node.
//
// The engine calls one peer from one goroutine at a time and separates its
// phases with barriers, so the per-peer span buffer needs no lock.
type tracedPeer struct {
	*core.Node
	epoch      time.Time
	spans      []span
	departures int64
}

func (p *tracedPeer) now() int64 { return int64(time.Since(p.epoch)) }

func (p *tracedPeer) record(c coreCall, start int64) {
	p.spans = append(p.spans, span{call: c, start: start, end: p.now()})
}

func (p *tracedPeer) BeginCycle(now int64) {
	t := p.now()
	p.Node.BeginCycle(now)
	p.record(callBeginCycle, t)
}

func (p *tracedPeer) InjectRPSCandidates() {
	t := p.now()
	p.Node.InjectRPSCandidates()
	p.record(callInject, t)
}

func (p *tracedPeer) Publish(item news.Item, now int64) []core.Send {
	t := p.now()
	sends := p.Node.Publish(item, now)
	p.record(callPublish, t)
	return sends
}

func (p *tracedPeer) Receive(msg core.ItemMessage, now int64) (core.Delivery, []core.Send) {
	t := p.now()
	d, sends := p.Node.Receive(msg, now)
	p.spans = append(p.spans, span{call: callReceive, dup: d.Duplicate, start: t, end: p.now()})
	return d, sends
}

func (p *tracedPeer) ColdStart(inheritedRPS, inheritedWUP []overlay.Descriptor, now int64) {
	t := p.now()
	p.Node.ColdStart(inheritedRPS, inheritedWUP, now)
	p.record(callColdStart, t)
}

func (p *tracedPeer) Rejoin(bootstrap []overlay.Descriptor, now int64) {
	t := p.now()
	p.Node.Rejoin(bootstrap, now)
	p.record(callRejoin, t)
}

func (p *tracedPeer) Crash() {
	t := p.now()
	p.Node.Crash()
	p.record(callCrash, t)
}

func (p *tracedPeer) Leave() {
	t := p.now()
	p.Node.Leave()
	p.record(callLeave, t)
}

// NoteDeparture is counted, not timed: gossip under churn makes millions of
// these sub-microsecond calls, and a span each would dwarf the call.
func (p *tracedPeer) NoteDeparture(ts overlay.Tombstone, now int64) {
	p.departures++
	p.Node.NoteDeparture(ts, now)
}
