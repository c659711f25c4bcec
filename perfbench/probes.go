package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// The probes time the public calls the engine reaches without passing
// through sim.Peer — overlay trimming, profile scoring and merging, the wire
// codec — on clones of state captured at the end of a workload.

var probeNames = []string{
	"overlay.trim", "profile.similarity", "profile.wire_size", "profile.merge",
	"wire.encode", "wire.decode",
}

// probeSample is one node's captured state.
type probeSample struct {
	metric   profile.Metric
	self     *profile.Profile
	wup, rps []overlay.Descriptor
	capacity int // WUP view capacity
}

// probeNodes bounds how many nodes' state the probes replay.
const probeNodes = 64

// probeRounds is how many times each probe replays the sample.
const probeRounds = 8

// captureNode snapshots one node's probe state.
func captureNode(n *core.Node) probeSample {
	return probeSample{
		metric:   n.Config().Metric,
		self:     n.UserProfile().Clone(),
		wup:      n.WUP().View().Entries(),
		rps:      n.RPS().View().Entries(),
		capacity: n.WUP().View().Capacity(),
	}
}

// captureSim samples evenly spread online peers of a finished engine.
func captureSim(e *sim.Engine) []probeSample {
	peers := e.OnlinePeers()
	var samples []probeSample
	stride := max(1, len(peers)/probeNodes)
	for i := 0; i < len(peers) && len(samples) < probeNodes; i += stride {
		samples = append(samples, captureNode(peers[i].(*tracedPeer).Node))
	}
	return samples
}

// timeOps runs op n times, timing each call, and returns the per-call
// durations and the heap allocations per call.
func timeOps(n int, op func(i int)) (ns []float64, allocsPerOp float64) {
	ns = make([]float64, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t := time.Now()
		op(i)
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	runtime.ReadMemStats(&after)
	return ns, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// runProbes times every probe on the captured state and reports
// <probe>.ns_p50 (wire probes: ns per KiB) and <probe>.allocs_per_op.
func runProbes(samples []probeSample, out *report) {
	if len(samples) == 0 {
		out.fail(fmt.Errorf("probes: no state captured"))
		return
	}
	var descs []overlay.Descriptor // every captured descriptor, with its owner's sample
	var owners []int
	for si, s := range samples {
		for _, d := range slices.Concat(s.wup, s.rps) {
			descs = append(descs, d)
			owners = append(owners, si)
		}
	}
	if len(descs) == 0 {
		out.fail(fmt.Errorf("probes: captured views are empty"))
		return
	}
	nd := len(descs) * probeRounds
	ns := len(samples) * probeRounds

	// overlay.trim: a view holding the node's WUP and RPS entries, trimmed
	// back to WUP capacity by similarity — the WUP merge step.
	views := make([]*overlay.View, ns)
	rngs := make([]*rand.Rand, ns)
	for i := range views {
		s := samples[i%len(samples)]
		v := overlay.NewView(s.capacity)
		for _, d := range s.wup {
			v.Insert(d)
		}
		for _, d := range s.rps {
			v.Insert(d)
		}
		views[i] = v
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	t, a := timeOps(ns, func(i int) {
		s := samples[i%len(samples)]
		views[i].TrimBySimilarity(rngs[i], s.metric, s.self)
	})
	out.layer("overlay.trim.ns_p50", median(t))
	out.layer("overlay.trim.allocs_per_op", a)

	var sink float64
	t, a = timeOps(nd, func(i int) {
		j := i % len(descs)
		s := samples[owners[j]]
		sink += s.metric.Similarity(s.self, descs[j].Profile)
	})
	out.layer("profile.similarity.ns_p50", median(t))
	out.layer("profile.similarity.allocs_per_op", a)

	var size int
	t, a = timeOps(nd, func(i int) { size += descs[i%len(descs)].Profile.WireSize() })
	out.layer("profile.wire_size.ns_p50", median(t))
	out.layer("profile.wire_size.allocs_per_op", a)

	// profile.merge: the item-profile aggregation of a liked delivery,
	// merging a node's profile into a copy of a neighbour's.
	targets := make([]*profile.Profile, nd)
	for i := range targets {
		targets[i] = descs[i%len(descs)].Profile.Clone()
	}
	t, a = timeOps(nd, func(i int) { targets[i].MergeAverage(samples[owners[i%len(descs)]].self) })
	out.layer("profile.merge.ns_p50", median(t))
	out.layer("profile.merge.allocs_per_op", a)

	// wire: one gossip push per node (its WUP view as a descriptor batch)
	// plus its user profile, encoded and decoded.
	bufs := make([][]byte, ns)
	var encBytes int
	t, a = timeOps(ns, func(i int) {
		s := samples[i%len(samples)]
		b := overlay.AppendDescriptors(nil, s.wup)
		bufs[i] = s.self.AppendWire(b)
	})
	for _, b := range bufs {
		encBytes += len(b)
	}
	kib := float64(encBytes) / 1024
	out.layer("wire.encode_ns_per_kb", sum(t)/kib)
	out.layer("wire.encode.allocs_per_op", a)

	decodeErr := error(nil)
	t, a = timeOps(ns, func(i int) {
		_, rest, err := overlay.DecodeDescriptors(bufs[i])
		if err == nil {
			_, _, err = profile.DecodeWire(rest)
		}
		if err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		out.fail(fmt.Errorf("probes: decoding what the codec encoded: %w", decodeErr))
	}
	out.layer("wire.decode_ns_per_kb", sum(t)/kib)
	out.layer("wire.decode.allocs_per_op", a)
	runtime.KeepAlive(sink)
	runtime.KeepAlive(size)
}
