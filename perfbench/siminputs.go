package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// Engine settings shared by every sim workload: two workers (the box has two
// CPUs) and the default single shard. Sharding never changes results.
const simWorkers = 2

// simInputs is everything a sim workload hands the program, generated from
// the seed: a dataset (population and opinion trace), the publication
// schedule, the churn schedule and the protocol settings.
type simInputs struct {
	workload string
	seed     int64
	ds       *dataset.Dataset
	cycles   int
	pubs     []sim.Publication
	warmup   map[news.ID]bool // items published during the transient
	churn    sim.ChurnSchedule
	churnOf  map[news.NodeID][]sim.ChurnEvent // each peer's churn events, in cycle order
	joiners  int                              // flash-crowd joiners, ids ds.Users onwards
	nodeCfg  core.Config
	notices  bool
	refill   float64
}

// Workload sizes. sim-gossip and sim-churn run the synthetic community
// workload near paper scale (about 3 000 peers) over a short horizon with a
// thinned publication schedule, so overlay maintenance dominates; sim-beep
// runs the Digg-like workload at paper scale (750 users, 2 500 items, 65
// cycles), where BEEP dissemination dominates.
//
// The population, its interests and the publication order come from one
// fixed dataset seed, so every seed runs a world of the same size and shape
// and costs compare across seeds; the run's seed draws which items are
// published, by whom, the churn identities and all protocol randomness.
const (
	datasetSeed       = 1
	gossipScale       = 0.95
	gossipCycles      = 24
	gossipThinning    = 10 // keep one item in ten
	churnRate         = 0.20
	churnDowntime     = 4
	churnTTL          = 6
	churnRefill       = 0.5
	churnFlashPercent = 5
	diggCycles        = 65
)

// simPairs is the number of repetition pairs a run makes for a budget: one
// per 10 s on sim-gossip and sim-churn (a pair takes 5 to 14 s on a 2-vCPU
// Xeon @ 2.1 GHz, as fast as the shared host lets it), one per 20 s on
// sim-beep (an untraced pair takes 17 to 33 s); at
// least one. The count is fixed by the budget, not by the time that passed,
// because a pair's time varies with the box: counted against the clock,
// sim-churn ran one pair on some seeds and two on others, and averaged its
// f1 over one world or two.
func simPairs(workload string, budget time.Duration) int {
	per := 10 * time.Second
	if workload == "sim-beep" {
		per = 20 * time.Second
	}
	return max(1, int(budget/per))
}

// simCheckCycles is the number of cycles the second repetition of an
// untraced pair reruns to check determinism, 0 for all of them. On sim-beep
// a full rerun doubled a run to about 55 s, and the longer a workload's
// runs, the more of the shared host's drift in speed its ten-run sets
// spanned; its first 20 cycles take about a fifth of the time.
func simCheckCycles(workload string) int {
	if workload == "sim-beep" {
		return 20
	}
	return 0
}

// simSetups is the number of set-ups whose median a sim run reports as
// setup_s: those of its repetitions, topped up with set-up-only worlds.
const simSetups = 9

func isSimWorkload(w string) bool {
	return w == "sim-gossip" || w == "sim-beep" || w == "sim-churn"
}

// makeSimInputs generates the inputs of a sim workload from the seed.
func makeSimInputs(workload string, seed int64) *simInputs {
	in := &simInputs{workload: workload, seed: seed}
	switch workload {
	case "sim-gossip", "sim-churn":
		in.ds = dataset.Synthetic(dataset.SyntheticConfig{
			Seed: datasetSeed, Scale: gossipScale, Cycles: gossipCycles, SkipDetection: true,
		})
		in.cycles = gossipCycles
		if workload == "sim-churn" {
			in.addChurn()
		}
		in.schedule(gossipThinning)
	case "sim-beep":
		in.ds = dataset.Digg(dataset.DiggConfig{Seed: datasetSeed, Scale: 1, Cycles: diggCycles})
		in.cycles = diggCycles
		in.schedule(1)
	default:
		panic(fmt.Sprintf("perfbench: %q is not a sim workload", workload))
	}
	return in
}

// schedule builds the publication schedule: the dataset's items in a fixed
// shuffled order (the synthetic generator lists each community's items in
// one block), keeping a seeded choice of one item in every run of `keep`
// consecutive items of the dataset, each published by a seeded choice among
// the users who like it and are online when it is published (the engine
// drops a publication whose source is offline, and the collector would
// still count the item as missed by every interested user). Every seed
// thus publishes as many items, of the same community mix, as every
// other. Each run of items draws its own
// choice: one offset shared by all runs (every keep-th item) splits the
// items into only `keep` sets, and on sim-churn one of those ten sets gave
// half the BEEP traffic and half the F1 of the others.
func (in *simInputs) schedule(keep int) {
	items := in.ds.Items
	order := rand.New(rand.NewSource(datasetSeed)).Perm(len(items))
	rng := rand.New(rand.NewSource(in.seed))
	kept := make([]bool, len(items))
	for b := 0; b < len(items); b += keep {
		kept[b+rng.Intn(min(keep, len(items)-b))] = true
	}
	warmup := in.ds.WarmupCycles()
	in.warmup = map[news.ID]bool{}
	for i := range items {
		idx := order[i]
		if !kept[idx] {
			continue
		}
		it := items[idx].News
		cycle := items[i].Cycle
		if fans := in.onlineFans(idx, cycle); len(fans) > 0 {
			it.Source = fans[rng.Intn(len(fans))]
		}
		it.Created = cycle
		in.pubs = append(in.pubs, sim.Publication{Cycle: cycle, Source: it.Source, Item: it})
		if cycle <= warmup {
			in.warmup[it.ID] = true
		}
	}
}

// onlineFans returns the users who like item idx and whom the churn
// schedule has online at the publications of a cycle, which the engine runs
// after that cycle's churn.
func (in *simInputs) onlineFans(idx int, cycle int64) []news.NodeID {
	fans := in.ds.InterestedUsers(idx)
	if len(in.churnOf) == 0 {
		return fans
	}
	online := fans[:0:0]
	for _, u := range fans {
		up := true
		for _, ev := range in.churnOf[u] {
			if ev.Cycle > cycle {
				break
			}
			up = ev.Kind == sim.ChurnRejoin
		}
		if up {
			online = append(online, u)
		}
	}
	return online
}

// addChurn layers the churn scenario on the gossip world: over the middle
// of the run a fixed number of peers per cycle, drawn by the seed, either
// crash (and rejoin churnDowntime cycles later) or leave gracefully, each
// peer at most once; a cold-starting flash crowd arrives a third of the way
// in; departure notices, view refill and a descriptor TTL are on. The churn
// window closes one TTL plus one downtime before the end, so the run ends
// healed. Fixed counts keep every seed's churn volume the same.
func (in *simInputs) addChurn() {
	n := in.ds.Users
	rng := rand.New(rand.NewSource(in.seed + 1))
	from := in.cycles / 5
	to := in.cycles - churnTTL - churnDowntime
	perCycle := int(churnRate * float64(n) / float64(to-from))
	order := rng.Perm(n)
	for c := from; c < to; c++ {
		for k := 0; k < perCycle; k++ {
			id := news.NodeID(order[0])
			order = order[1:]
			if k%2 == 0 {
				in.churn.Add(int64(c), sim.ChurnCrash, id)
				in.churn.Add(int64(c+churnDowntime), sim.ChurnRejoin, id)
			} else {
				in.churn.Add(int64(c), sim.ChurnLeave, id)
			}
		}
	}
	in.joiners = n * churnFlashPercent / 100
	in.churn.Merge(sim.FlashCrowd(int64(in.cycles/3), news.NodeID(n), in.joiners, in.joiners/4+1))
	in.churnOf = map[news.NodeID][]sim.ChurnEvent{}
	for _, ev := range in.churn.Events {
		in.churnOf[ev.Node] = append(in.churnOf[ev.Node], ev)
	}
	in.nodeCfg.DescriptorTTL = churnTTL
	in.notices = true
	in.refill = churnRefill
}

// opinions is the like/dislike trace: a flash-crowd joiner shares the
// interests of the base user its id maps onto.
func (in *simInputs) opinions() core.Opinions {
	users := news.NodeID(in.ds.Users)
	return core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return in.ds.Likes(node%users, item)
	})
}

// members is the number of peers the run ever holds.
func (in *simInputs) members() int { return in.ds.Users + in.joiners }

// register declares the scheduled items and every member with a collector.
// Items of the transient are registered as warm-up: disseminated but not
// measured, as in the paper's long traces.
func (in *simInputs) register(col *metrics.Collector) {
	ops := in.opinions()
	interests := make([]int, in.members())
	for _, p := range in.pubs {
		interested := 0
		for u := range interests {
			if ops.Likes(news.NodeID(u), p.Item.ID) {
				interested++
				if !in.warmup[p.Item.ID] {
					interests[u]++
				}
			}
		}
		if in.warmup[p.Item.ID] {
			col.RegisterWarmupItem(p.Item.ID, interested)
		} else {
			col.RegisterItem(p.Item.ID, interested)
		}
	}
	for u, k := range interests {
		col.RegisterNode(news.NodeID(u), k)
	}
}

// digest hashes every generated input, so tests can check that a seed
// determines its inputs.
func (in *simInputs) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(in.ds.Users))
	put(uint64(in.cycles))
	for _, p := range in.pubs {
		put(uint64(p.Cycle))
		put(uint64(p.Source))
		put(uint64(p.Item.ID))
		for u := 0; u < in.ds.Users; u++ {
			if in.ds.Likes(news.NodeID(u), p.Item.ID) {
				put(uint64(u))
			}
		}
	}
	for _, ev := range in.churn.Events {
		put(uint64(ev.Cycle))
		put(uint64(ev.Kind))
		put(uint64(ev.Node))
	}
	put(math.Float64bits(in.refill))
	return h.Sum64()
}
