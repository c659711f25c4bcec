package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/sim"
)

// simTracer collects the spans of traced sim repetitions and folds them,
// cycle by cycle, into per-layer samples.
type simTracer struct {
	epoch time.Time
	peers []*tracedPeer
	mem   runtime.MemStats

	ns      [numCoreCalls][]float64 // per-call durations
	selfMs  []float64
	phaseMs [numPhases][]float64
	// busyNs and windowNs accumulate, per phase, the summed child span time
	// and the phase window, for the busy fraction.
	busyNs, windowNs [numPhases]int64
	cycles           int
	allocs, bytes    uint64

	ivs   [][2]int64    // scratch: span intervals of one cycle
	last  []traceRecord // spans of the latest traced cycle
	probe []probeSample // state captured at the end of the latest traced repetition

	// Counts of the first traced repetition only, so that they repeat
	// exactly for a seed whatever the run length: calls by kind, duplicate
	// receipts, NoteDeparture calls (which are not timed) and the summed
	// RPS-injection time.
	counted          bool
	calls            [numCoreCalls]int64
	dups, departures int64
	injectNs         int64
}

// Phases of Engine.Step, in the order it runs them.
const (
	phaseChurn = iota
	phaseMaintain
	phaseRPS
	phaseWUP
	phaseBeep
	numPhases
)

var phaseNames = [numPhases]string{"churn", "maintain", "rps", "wup", "beep"}

func newSimTracer() *simTracer { return &simTracer{epoch: time.Now()} }

// wrap decorates a node for tracing.
func (t *simTracer) wrap(n *core.Node) sim.Peer {
	p := &tracedPeer{Node: n, epoch: t.epoch}
	t.peers = append(t.peers, p)
	return p
}

func (t *simTracer) beforeStep() { runtime.ReadMemStats(&t.mem) }

// afterStep folds the spans of the step that ran from start for d. The
// phase windows come from the child spans' boundaries, because Step runs
// its phases in a fixed order: churn until the first BeginCycle,
// maintenance until the last BeginCycle ends, the RPS round (and refill)
// until the first RPS-candidate injection opens the WUP round, and BEEP
// from the first Publish or Receive to the end of the step.
func (t *simTracer) afterStep(start time.Time, d time.Duration) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.allocs += mem.Mallocs - t.mem.Mallocs
	t.bytes += mem.TotalAlloc - t.mem.TotalAlloc
	t.cycles++

	stepStart := int64(start.Sub(t.epoch))
	stepEnd := stepStart + int64(d)
	id := fmt.Sprintf("cycle-%d", t.cycles)
	const none = int64(-1)
	firstBegin, lastBeginEnd, firstInject, firstBeep := none, none, none, none
	var childNs [numPhases]int64
	t.ivs = t.ivs[:0]
	keepLast := append(t.last[:0], traceRecord{ID: id, Name: "sim.step", Start: stepStart, End: stepEnd})
	for _, p := range t.peers {
		for _, s := range p.spans {
			dur := s.end - s.start
			if !t.counted {
				t.calls[s.call]++
				if s.dup {
					t.dups++
				}
				if s.call == callInject {
					t.injectNs += dur
				}
			}
			t.ns[s.call] = append(t.ns[s.call], float64(dur))
			t.ivs = append(t.ivs, [2]int64{s.start, s.end})
			keepLast = append(keepLast, traceRecord{ID: id, Name: coreCallNames[s.call], Parent: "sim.step", Node: int32(p.ID()), Start: s.start, End: s.end})
			switch s.call {
			case callBeginCycle:
				childNs[phaseMaintain] += dur
				if firstBegin == none || s.start < firstBegin {
					firstBegin = s.start
				}
				lastBeginEnd = max(lastBeginEnd, s.end)
			case callInject:
				if firstInject == none || s.start < firstInject {
					firstInject = s.start
				}
			case callPublish, callReceive:
				childNs[phaseBeep] += dur
				if firstBeep == none || s.start < firstBeep {
					firstBeep = s.start
				}
			}
		}
		p.spans = p.spans[:0]
		if !t.counted {
			t.departures += p.departures
		}
		p.departures = 0
	}
	t.last = keepLast

	t.selfMs = append(t.selfMs, float64(stepEnd-stepStart-unionLen(t.ivs))/1e6)
	if firstBegin == none || firstInject == none {
		return // nobody online: no phase structure to infer
	}
	if firstBeep == none {
		firstBeep = stepEnd
	}
	bounds := [numPhases + 1]int64{stepStart, firstBegin, lastBeginEnd, firstInject, firstBeep, stepEnd}
	for ph := 0; ph < numPhases; ph++ {
		w := bounds[ph+1] - bounds[ph]
		t.phaseMs[ph] = append(t.phaseMs[ph], float64(w)/1e6)
		t.windowNs[ph] += w
		t.busyNs[ph] += childNs[ph]
	}
}

// unionLen is the total length covered by a set of intervals, which it
// sorts in place.
func unionLen(ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// capture snapshots probe state from the end of a traced repetition and
// releases the repetition's peers.
func (t *simTracer) capture(e *sim.Engine) {
	t.probe = captureSim(e)
	t.peers = t.peers[:0]
	t.counted = true
}

// report emits the sim and core per-layer metrics: timings over every
// traced repetition, counts of the first.
func (t *simTracer) report(out *report) {
	out.layer("sim.step_self_ms_p50", median(t.selfMs))
	for ph := 0; ph < numPhases; ph++ {
		out.layer("sim.phase."+phaseNames[ph]+"_ms_p50", median(t.phaseMs[ph]))
	}
	for _, ph := range []int{phaseMaintain, phaseBeep} {
		out.layer("sim."+phaseNames[ph]+".busy_frac", ratio(float64(t.busyNs[ph]), float64(simWorkers*t.windowNs[ph])))
	}
	out.layer("sim.allocs_per_cycle", ratio(float64(t.allocs), float64(t.cycles)))
	out.layer("sim.alloc_bytes_per_cycle", ratio(float64(t.bytes), float64(t.cycles)))

	out.layer("core.receive.calls", float64(t.calls[callReceive]))
	out.layer("core.receive.ns_p50", median(t.ns[callReceive]))
	out.layer("core.receive.dup_frac", ratio(float64(t.dups), float64(t.calls[callReceive])))
	out.layer("core.publish.calls", float64(t.calls[callPublish]))
	out.layer("core.publish.ns_p50", median(t.ns[callPublish]))
	out.layer("core.inject_rps.ns_p50", median(t.ns[callInject]))
	out.layer("core.inject_rps.ms_sum", float64(t.injectNs)/1e6)
	out.layer("core.begin_cycle.ns_p50", median(t.ns[callBeginCycle]))
	out.layer("core.note_departure.calls", float64(t.departures))
	out.layer("core.cold_start.ns_p50", median(t.ns[callColdStart]))
	out.layer("core.rejoin.ns_p50", median(t.ns[callRejoin]))
	out.spans = append(out.spans, t.last...)
}
