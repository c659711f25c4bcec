package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"html"
	"math/rand"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/news"
)

// Serving workload sizes. The fleet is small and gossips slowly enough that
// the numbers measure the serving path rather than the scheduler: the API
// shares the process, and the box's two CPUs, with every node goroutine.
const (
	fleetNodes    = 32
	cycleLength   = 500 * time.Millisecond
	feedCapacity  = 64
	likePercent   = 40
	gatewayNode   = 0
	pollInterval  = 500 * time.Millisecond
	docNewItems   = 2  // fresh items per RSS document
	docRepeats    = 5  // items each document repeats from earlier ones
	warmupDocs    = 6  // documents ingested before the load starts
	serveSetups   = 25 // fleet set-ups per run; setup_s is their median
	deliverySlack = time.Second
)

// Request routes of the open-loop mix, with their weights.
const (
	routeFeed = iota
	routeSnapshot
	routeStats
	routeFeedback
	routeItem
	numRoutes
)

var apiRoutes = []string{"feed", "snapshot", "stats", "feedback", "item"}

var routeWeights = [numRoutes]int{45, 15, 10, 20, 10}

// request is one generated API call.
type request struct {
	route int
	node  news.NodeID
	item  int // index into serveInputs.items (feedback, item)
	liked bool
}

// serveInputs is everything the serving workload hands the program: the
// RSS documents the gateway ingests, in order, the like/dislike model of
// the fleet, and the request sequence.
type serveInputs struct {
	seed  int64
	docs  [][]byte
	items []news.Item // every generated item, in first-appearance order
	// warmItems is how many leading items the warm-up documents carry;
	// item lookups only name those, so they exist before the load starts.
	warmItems int
	reqs      []request
}

// makeServeInputs generates the RSS documents for the whole run and n
// requests.
func makeServeInputs(seed int64, budget time.Duration, n int) *serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{seed: seed}
	// One document per poll for the whole run, plus slack for set-up.
	docs := int((budget+10*time.Second)/pollInterval) + warmupDocs
	topics := []string{"politics", "science", "sport", "culture", "economy", "technology", "health", "travel"}
	for d := 0; d < docs; d++ {
		var b bytes.Buffer
		b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n<rss version=\"2.0\"><channel><title>perfbench wire</title>\n")
		var entries []news.Item
		for k := 0; k < docNewItems; k++ {
			topic := topics[rng.Intn(len(topics))]
			id := len(in.items) + len(entries)
			title := fmt.Sprintf("%s story %d: %x", topic, id, rng.Uint32())
			desc := fmt.Sprintf("Seeded article %d about %s, %d words.", id, topic, 80+rng.Intn(900))
			link := fmt.Sprintf("https://wire.example/%s/%d-%x", topic, id, rng.Uint32())
			entries = append(entries, news.New(title, desc, link, 0, news.NoNode))
		}
		// Re-serve some earlier items, as real feeds do, so deduplication
		// has work.
		var repeats []news.Item
		for k := 0; k < docRepeats && len(in.items) > 0; k++ {
			repeats = append(repeats, in.items[rng.Intn(len(in.items))])
		}
		in.items = append(in.items, entries...)
		for _, it := range append(entries, repeats...) {
			fmt.Fprintf(&b, "<item><title>%s</title><description>%s</description><link>%s</link><pubDate>%s</pubDate></item>\n",
				html.EscapeString(it.Title), html.EscapeString(it.Description), html.EscapeString(it.Link),
				time.Unix(1_360_000_000+int64(d)*60, 0).UTC().Format(time.RFC1123Z))
		}
		b.WriteString("</channel></rss>\n")
		in.docs = append(in.docs, b.Bytes())
		if d == warmupDocs-1 {
			in.warmItems = len(in.items)
		}
	}
	total := 0
	for _, w := range routeWeights {
		total += w
	}
	in.reqs = make([]request, n)
	for i := range in.reqs {
		r := request{node: news.NodeID(rng.Intn(fleetNodes)), item: rng.Intn(in.warmItems), liked: rng.Intn(2) == 0}
		for x := rng.Intn(total); x >= routeWeights[r.route]; r.route++ {
			x -= routeWeights[r.route]
		}
		in.reqs[i] = r
	}
	return in
}

// opinions is the fleet's interest model over ingested items: each (node,
// item) pair likes with probability likePercent, from a seeded hash.
func (in *serveInputs) opinions() core.Opinions {
	salt := uint64(in.seed) * 0x9E3779B97F4A7C15
	return core.OpinionFunc(func(n news.NodeID, id news.ID) bool {
		h := (uint64(id)^salt)*0xBF58476D1CE4E5B9 ^ uint64(uint32(n))*0x94D049BB133111EB
		h ^= h >> 31
		return h%100 < likePercent
	})
}

// digest hashes every generated input.
func (in *serveInputs) digest() uint64 {
	h := fnv.New64a()
	for _, d := range in.docs {
		h.Write(d)
	}
	var buf [8]byte
	for _, r := range in.reqs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.route)<<56^uint64(r.node)<<24^uint64(r.item)<<1)
		if r.liked {
			buf[0] ^= 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
