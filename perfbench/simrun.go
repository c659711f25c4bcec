package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

const numKinds = int(metrics.MsgRefillReply) + 1

// fingerprint is the collector's observable outcome of a run. Two runs of
// one seed must agree on it bit for bit, whatever the timing or tracing.
type fingerprint struct {
	F1, Precision, Recall float64
	Msgs, Bytes           [numKinds]int64
}

func fingerprintOf(col *metrics.Collector) fingerprint {
	fp := fingerprint{F1: col.F1(), Precision: col.Precision(), Recall: col.Recall()}
	for k := range fp.Msgs {
		fp.Msgs[k] = col.Messages(metrics.MessageKind(k))
		fp.Bytes[k] = col.Bytes(metrics.MessageKind(k))
	}
	return fp
}

// simRep is one repetition of a sim workload: generate the inputs, build and
// bootstrap the world, run every cycle.
type simRep struct {
	traced     bool
	setup      time.Duration
	bootstrap  time.Duration
	cycles     []time.Duration // wall time of each Engine.Step
	cycleCPU   []time.Duration // CPU time of the process during each Engine.Step
	peerCycles int64           // online peers summed over cycles
	heap       uint64
	members    int
	fp         fingerprint
	fpAt       fingerprint // after the cycle runSimRep was asked to check at
	nodeF1     float64     // node-level F1, micro-averaged over every member
}

// nodeRNG derives a node's random stream from the seed and its id.
func nodeRNG(seed int64, id news.NodeID) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
}

// setUpSim generates a workload's inputs and builds and bootstraps its
// world, limited to the first `cycles` cycles when cycles > 0; tr is nil for
// an untraced world. setup is the whole time taken, bootstrap its last part;
// the garbage of earlier worlds is collected before the clock starts.
func setUpSim(workload string, seed int64, cycles int, tr *simTracer) (e *sim.Engine, in *simInputs, col *metrics.Collector, setup, bootstrap time.Duration) {
	runtime.GC()
	t0 := time.Now()
	in = makeSimInputs(workload, seed)
	if cycles > 0 {
		in.cycles = min(in.cycles, cycles)
	}
	ops := in.opinions()
	newPeer := func(id news.NodeID) sim.Peer {
		n := core.NewNode(id, "", in.nodeCfg, ops, nodeRNG(seed, id))
		if tr == nil {
			return n
		}
		return tr.wrap(n)
	}
	peers := make([]sim.Peer, in.ds.Users)
	for u := range peers {
		peers[u] = newPeer(news.NodeID(u))
	}
	col = metrics.NewCollector()
	in.register(col)
	cfg := sim.Config{
		Seed: seed, Cycles: in.cycles, Workers: simWorkers,
		Publications: in.pubs, Churn: in.churn,
		DepartureNotices: in.notices, RefillWatermark: in.refill,
	}
	if in.joiners > 0 {
		cfg.NewPeer = newPeer
	}
	e = sim.New(cfg, peers, col)
	tb := time.Now()
	e.Bootstrap()
	return e, in, col, time.Since(t0), time.Since(tb)
}

// runSimRep runs one repetition, of the first `cycles` cycles only when
// cycles > 0, and keeps the fingerprint after cycle checkAt when it is > 0;
// tr is nil for an untraced one.
func runSimRep(workload string, seed int64, cycles, checkAt int, tr *simTracer) simRep {
	rep := simRep{traced: tr != nil}
	e, in, col, setup, bootstrap := setUpSim(workload, seed, cycles, tr)
	rep.setup, rep.bootstrap = setup, bootstrap

	for c := 0; c < in.cycles; c++ {
		if tr != nil {
			tr.beforeStep()
		}
		cpu0 := cpuTime()
		start := time.Now()
		e.Step()
		d := time.Since(start)
		rep.cycleCPU = append(rep.cycleCPU, cpuTime()-cpu0)
		if tr != nil {
			tr.afterStep(start, d)
		}
		rep.cycles = append(rep.cycles, d)
		rep.peerCycles += int64(e.OnlineCount())
		if c+1 == checkAt {
			rep.fpAt = fingerprintOf(col)
		}
	}
	rep.fp = fingerprintOf(col)
	rep.nodeF1 = col.CohortSummary(metrics.CohortStable).F1() // the benchmark assigns no other cohort
	if tr != nil {
		tr.capture(e)
	}
	rep.heap = liveHeap()
	rep.members = e.MemberCount()
	runtime.KeepAlive(e)
	return rep
}

// checkSim verifies the outputs of a pair of repetitions of one seed: the
// second, which may rerun only the first cycles, must produce the
// fingerprint the first had after as many cycles (the determinism contract,
// which also proves tracing transparent), and the first's fingerprint must
// describe a run that actually recommended something.
func checkSim(workload string, pair []simRep) error {
	a, b := pair[0], pair[1]
	want := a.fp
	if len(b.cycles) < len(a.cycles) {
		want = a.fpAt
	}
	if b.fp != want {
		return fmt.Errorf("repetition of %d cycles (traced=%v) fingerprint %+v differs from the first repetition's %+v", len(b.cycles), b.traced, b.fp, want)
	}
	fp := a.fp
	if !(fp.F1 > 0 && fp.F1 <= 1) {
		return fmt.Errorf("F1 %v outside (0, 1]", fp.F1)
	}
	for _, k := range []metrics.MessageKind{metrics.MsgBeep, metrics.MsgRPSRequest, metrics.MsgRPSReply, metrics.MsgWUPRequest, metrics.MsgWUPReply} {
		if fp.Msgs[k] == 0 {
			return fmt.Errorf("no %v messages", k)
		}
	}
	if workload == "sim-churn" && fp.Msgs[metrics.MsgDeparture] == 0 {
		return fmt.Errorf("churn run sent no departure notices")
	}
	return nil
}

// runSim measures a sim workload for about `budget`: pairs of repetitions
// of the workload, each pair on its own sub-seed, as many as simPairs gives
// for the budget, stopping early only at maxRunTime. The second repetition
// of a pair reruns the first simCheckCycles cycles, or all of them, and
// must agree bit for bit with the first (the determinism contract); pairs
// on different sub-seeds average out the quality metrics' seed-to-seed
// swing. A traced run traces a full second repetition of each pair, so the
// tracing overhead and the traced/untraced fingerprint agreement are
// measured in one run.
func runSim(workload string, seed int64, budget time.Duration, traced bool, out *report) {
	var reps []simRep
	var tr *simTracer
	if traced {
		tr = newSimTracer()
	}
	pairs := simPairs(workload, budget)
	start := time.Now()
	for pair := int64(0); pair < int64(pairs); pair++ {
		p0 := time.Now()
		sub := subSeed(seed, pair)
		check := simCheckCycles(workload)
		var t *simTracer
		if traced {
			check, t = 0, tr
		}
		reps = append(reps, runSimRep(workload, sub, 0, check, nil))
		reps = append(reps, runSimRep(workload, sub, check, 0, t))
		if time.Since(start)+time.Since(p0) > maxRunTime {
			break
		}
	}

	var cycles, setups, boots []float64
	var tracedCycles []float64
	var heaps []float64
	var peerCycles int64
	var busy, cpu time.Duration
	var nodeF1 float64
	for i := 0; i < len(reps); i += 2 {
		pair := reps[i : i+2]
		if err := checkSim(workload, pair); err != nil {
			out.fail(fmt.Errorf("pair %d: %w", i/2, err))
		}
		nodeF1 += pair[0].nodeF1 / float64(len(reps)/2)
		peerCycles += pair[0].peerCycles
		heaps = append(heaps, float64(pair[0].heap)/float64(pair[0].members))
		wall, cpus := steadyCycles(pair)
		cycles = append(cycles, durationsMs(wall)...)
		for c := range wall {
			busy += wall[c]
			cpu += cpus[c]
		}
		for _, r := range pair {
			out.attempted += len(r.cycles)
			setups = append(setups, r.setup.Seconds())
			boots = append(boots, ms(r.bootstrap))
			if r.traced {
				tracedCycles = append(tracedCycles, durationsMs(r.cycles)...)
			}
		}
	}
	if len(out.errs) > 0 {
		out.failed = out.attempted
	}
	// Set-up takes a fraction of a second, so a run sets up more worlds
	// than its repetitions need, to report a median of simSetups.
	for k := int64(0); len(setups) < simSetups; k++ {
		_, _, _, setup, bootstrap := setUpSim(workload, subSeed(seed, k), 0, nil)
		setups = append(setups, setup.Seconds())
		boots = append(boots, ms(bootstrap))
	}

	// A repetition's cycles range from cheap (empty profiles) to several
	// times dearer (full views, churn), so their median sits on a steep
	// slope and moves with every stall; the mean step time is the steady
	// typical cost, and the time a user waits per cycle. Throughput is the
	// work done per CPU-second of the process: the cost of a peer-cycle,
	// which time taken from the process (by another process, or by the host
	// as steal) does not move; the mean step time reports the wall clock.
	fp := reps[0].fp
	out.e2e("setup_s", median(setups), len(setups))
	out.e2e("latency_ms", busy.Seconds()*1e3/float64(len(cycles)), len(cycles))
	out.e2e("latency_ms_p90", quantile(slices.Clone(cycles), 0.9), len(cycles))
	out.e2e("throughput_per_s", float64(peerCycles)/cpu.Seconds(), len(cycles))
	out.e2e("heap_bytes_per_peer", median(heaps), len(heaps))
	// The item-averaged F1 of a 24-cycle run weighs every small community's
	// few items as much as a big one's, and swings with each one's luck;
	// the node-level F1, summed over all deliveries, is the steady figure.
	out.e2e("f1", nodeF1, len(reps)/2)
	out.note(fmt.Sprintf("cycle_ms_p50 %v ms n=%d", median(slices.Clone(cycles)), len(cycles)))
	out.note(fmt.Sprintf("peer_cycles_per_s %v 1/s n=%d", float64(peerCycles)/busy.Seconds(), len(cycles)))
	out.note("cycle_ms_mean = latency_ms, cycle_ms_p90 = latency_ms_p90, peer_cycles_per_cpu_s = throughput_per_s")
	out.note(fmt.Sprintf("failed_frac %v ratio n=%d", ratio(float64(out.failed), float64(out.attempted)), out.attempted))
	out.note(fmt.Sprintf("repetitions %d, cycles per repetition %d; first pair: item-averaged F1 %.6f (precision %.6f, recall %.6f), messages by kind %v",
		len(reps), len(reps[0].cycles), fp.F1, fp.Precision, fp.Recall, fp.Msgs))

	if !traced {
		return
	}
	out.layer("sim.bootstrap_ms", median(boots))
	tr.report(out)
	for k := 0; k < numKinds; k++ {
		name := kindNames[k]
		out.layer("metrics.msgs."+name, float64(fp.Msgs[k]))
		out.layer("metrics.bytes."+name, float64(fp.Bytes[k]))
	}
	base := sum(cycles) / float64(len(cycles))
	out.layer("trace.overhead_frac", (sum(tracedCycles)/float64(len(tracedCycles))-base)/base)
	runProbes(tr.probe, out)
}

// steadyCycles returns, cycle by cycle, the shortest wall time and the
// shortest CPU time that the untraced repetitions of one pair spent on it;
// the first repetition runs every cycle. The repetitions of a pair do
// bit-identical work (checkSim holds them to it), so the shortest is the
// cost of that work with the least interference from the rest of a shared
// host: a stall that hits one repetition's cycle is not counted unless it
// hits the other's too.
func steadyCycles(pair []simRep) (wall, cpu []time.Duration) {
	wall, cpu = slices.Clone(pair[0].cycles), slices.Clone(pair[0].cycleCPU)
	for _, r := range pair[1:] {
		if r.traced {
			continue
		}
		for c := range r.cycles {
			wall[c] = min(wall[c], r.cycles[c])
			cpu[c] = min(cpu[c], r.cycleCPU[c])
		}
	}
	return wall, cpu
}

// subSeed derives the seed of a run's pair from the run's seed and the
// pair's index with the splitmix64 finaliser, kept to 31 bits. The inputs
// and the node streams come from math/rand sources, which reduce their seed
// modulo 2^31-1, so a sub-seed that is merely offset from the run's seed
// would hand neighbouring runs each other's worlds (seed + pair<<32 gives
// pair k of seed s the world of pair 0 of seed s+2k).
func subSeed(seed, pair int64) int64 {
	z := uint64(seed) + uint64(pair+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 33)
}

// kindNames are the per-layer names of the collector's message kinds.
var kindNames = [numKinds]string{"beep", "rps_req", "rps_reply", "wup_req", "wup_reply", "departure", "refill_req", "refill_reply"}
