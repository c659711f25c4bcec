package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"whatsup/internal/api"
	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/live"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/source"
)

// The open-loop load: requests at the nominal rate for nominalShare of the
// run, at which latency is reported, then load rungs of loadRate requests/s
// for loadTime each, with the responses checked between rungs, until the
// run's time is up. throughput_per_s (http_rps_per_cpu) is the load rungs'
// completed requests per CPU-second of the process: the CPU cost of a
// request, inverted. The rate the service sustains within a latency limit
// (http_rps_at_slo) is not reported: on a shared 2-vCPU Xeon @ 2.1 GHz it
// moved by a fifth from one run to the next, whether searched for within
// the latency limit (IQR/median 0.15 to 0.24 over three ten-seed sets) or
// taken from rungs offered more than the service takes (0.18 to 0.24).
// loadRate is about half what the service sustains there, and at most what
// TestGeneratorKeepsUp shows the generator sustains on its own.
const (
	nominalRate  = 200
	nominalShare = 0.5
	loadRate     = 6400
	loadTime     = time.Second
)

// sloMs is the serving latency limit on a rung's p99.
const sloMs = 100

// fleet is one running instance of the service: a live fleet over
// ChannelNet, the ingestion gateway polling the generated feed, and the API
// on a loopback listener.
type fleet struct {
	in     *serveInputs
	runner *live.Runner
	gw     *source.Gateway
	src    *genSource
	pub    *publishRecorder
	srv    *http.Server
	addr   string // the API's host:port
	cancel context.CancelFunc
	done   sync.WaitGroup
	tracer *serveTracer
	// stopIngest ends the gateway's poll loop and waits for it; nil until
	// startIngest.
	stopIngest func()

	mu   sync.Mutex
	errs []error // gateway poll and HTTP serve errors
}

// startFleet builds and starts the service on the given inputs.
func startFleet(in *serveInputs, tr *serveTracer) (*fleet, error) {
	f := &fleet{in: in, tracer: tr, src: &genSource{docs: in.docs, fetched: map[news.ID]bool{}, tracer: tr}}
	f.pub = &publishRecorder{at: map[news.ID]time.Time{}, tracer: tr}
	f.runner = live.NewRunner(live.Config{
		Seed:         in.seed,
		Cycles:       -1,
		CycleLength:  cycleLength,
		NodeConfig:   core.Config{},
		Opinions:     in.opinions(),
		FeedCapacity: feedCapacity,
		OnDelivery:   f.pub.delivered,
	}, dataset.Blank(fleetNodes, 0), live.NewChannelNet(in.seed, 0, 0))
	f.pub.runner = f.runner
	f.gw = source.NewGateway(source.GatewayConfig{
		Node: gatewayNode, Sources: []source.Source{f.src}, Interval: pollInterval,
	}, f.pub)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.addr = ln.Addr().String()
	var h http.Handler = api.NewServer(f.runner, f.gw.Catalog())
	if tr != nil {
		h = &tracingHandler{runner: f.runner, items: f.gw.Catalog(), reqs: in.reqs, plain: h, tracer: tr}
	}
	f.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done.Add(2)
	go func() {
		defer f.done.Done()
		f.runner.RunContext(ctx)
	}()
	go func() {
		defer f.done.Done()
		if err := f.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			f.noteErr(err)
		}
	}()
	return f, nil
}

// startIngest starts the gateway's poll loop once the fleet has ticked, so
// every fetched item can be published: the runner refuses publications
// before its first cycle and after it stops.
func (f *fleet) startIngest() {
	for f.runner.Cycle() < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.pollLoop(ctx)
	}()
	f.stopIngest = func() {
		cancel()
		<-done
	}
}

func (f *fleet) noteErr(err error) {
	f.mu.Lock()
	f.errs = append(f.errs, err)
	f.mu.Unlock()
}

// pollLoop runs one gateway ingestion round every poll interval, timing
// each round.
func (f *fleet) pollLoop(ctx context.Context) {
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	for {
		t := time.Now()
		if _, err := f.gw.PollOnce(ctx); err != nil && ctx.Err() == nil {
			f.noteErr(err)
		}
		if f.tracer != nil {
			f.tracer.poll(time.Since(t))
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// waitReady polls GET /v1/stats until the fleet answers.
func (f *fleet) waitReady() error {
	c := &loadConn{addr: f.addr}
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if status, _, err := c.do(http.MethodGet, "/v1/stats", -1, nil); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fleet did not answer within 30s")
}

// stop shuts the service down, ingestion first, and waits for every
// goroutine it started.
func (f *fleet) stop() {
	if f.stopIngest != nil {
		f.stopIngest()
	}
	f.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx) // a forced close is fine: the load has ended
	f.done.Wait()
}

// genSource serves the generated RSS documents, one per fetch, through the
// program's feed parser.
type genSource struct {
	docs    [][]byte
	next    int
	fetched map[news.ID]bool // every item any fetch returned
	items   int              // items returned, repeats included
	tracer  *serveTracer
}

func (s *genSource) Name() string { return "perfbench:generated" }

func (s *genSource) Fetch(ctx context.Context) ([]news.Item, error) {
	doc := s.docs[min(s.next, len(s.docs)-1)]
	s.next++
	t := time.Now()
	items, err := source.ParseFeed(doc)
	if s.tracer != nil {
		s.tracer.parse(time.Since(t))
	}
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		s.fetched[it.ID] = true
	}
	s.items += len(items)
	return items, nil
}

// publishRecorder sits between the gateway and the fleet: it stamps each
// item's publish time, so deliveries observed through live.Config's
// OnDelivery give the publish → delivery latency.
type publishRecorder struct {
	runner *live.Runner
	tracer *serveTracer

	mu         sync.Mutex
	at         map[news.ID]time.Time
	deliverMs  []float64
	deliveries []core.Delivery
}

func (p *publishRecorder) Publish(id news.NodeID, item news.Item) error {
	t := time.Now()
	p.mu.Lock()
	p.at[item.ID] = t
	p.mu.Unlock()
	err := p.runner.Publish(id, item)
	if p.tracer != nil {
		p.tracer.live("publish", time.Since(t))
	}
	return err
}

// delivered is the fleet's OnDelivery hook; it runs on node goroutines.
func (p *publishRecorder) delivered(d core.Delivery) {
	now := time.Now()
	p.mu.Lock()
	if t, ok := p.at[d.Item]; ok {
		p.deliverMs = append(p.deliverMs, ms(now.Sub(t)))
	}
	p.deliveries = append(p.deliveries, d)
	p.mu.Unlock()
}

// deliveryF1 scores the fleet's recommendations like the collector does:
// macro-averaged over the items published at least deliverySlack before
// the end, precision is the liked share of an item's deliveries and recall
// the share of interested nodes it reached.
func (p *publishRecorder) deliveryF1(ops core.Opinions, end time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	reached := map[news.ID]int{}
	liked := map[news.ID]int{}
	for _, d := range p.deliveries {
		reached[d.Item]++
		if d.Liked {
			liked[d.Item]++
		}
	}
	var ids []news.ID
	for id, t := range p.at {
		if end.Sub(t) >= deliverySlack {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	var prec, rec float64
	np, nr := 0, 0
	for _, id := range ids {
		if reached[id] > 0 {
			prec += float64(liked[id]) / float64(reached[id])
			np++
		}
		interested := 0
		for n := news.NodeID(0); n < fleetNodes; n++ {
			if n != gatewayNode && ops.Likes(n, id) {
				interested++
			}
		}
		if interested > 0 {
			rec += min(1, float64(liked[id])/float64(interested))
			nr++
		}
	}
	if np == 0 || nr == 0 {
		return 0
	}
	return metrics.F1Of(prec/float64(np), rec/float64(nr))
}

// checker validates response bodies as requests complete and keeps what
// can only be checked at the end of the run.
type checker struct {
	in *serveInputs

	mu      sync.Mutex
	errs    []error
	feedIDs map[string]bool
}

func (c *checker) fail(err error) {
	c.mu.Lock()
	if len(c.errs) < 10 {
		c.errs = append(c.errs, err)
	}
	c.mu.Unlock()
}

// do sends request i and returns the check of its response. A transport
// error or a non-2xx status is a failed request; a 2xx body that is wrong
// fails the run's output check.
func (c *checker) do(cl *loadConn, i int) (bool, func()) {
	r := c.in.reqs[i%len(c.in.reqs)]
	item := c.in.items[r.item].ID.String()
	method, path := http.MethodGet, ""
	var body []byte
	switch r.route {
	case routeFeed:
		path = fmt.Sprintf("/v1/nodes/%d/feed", r.node)
	case routeSnapshot:
		path = fmt.Sprintf("/v1/nodes/%d", r.node)
	case routeStats:
		path = "/v1/stats"
	case routeItem:
		path = "/v1/items/" + item
	case routeFeedback:
		method, path = http.MethodPost, fmt.Sprintf("/v1/nodes/%d/feedback", r.node)
		body = fmt.Appendf(nil, `{"item":%q,"liked":%v}`, item, r.liked)
	}
	status, resp, err := cl.do(method, path, i, body)
	if err != nil || status/100 != 2 {
		return false, nil
	}
	return true, func() { c.check(r, item, resp) }
}

// check validates one 2xx body.
func (c *checker) check(r request, item string, body []byte) {
	switch r.route {
	case routeFeed:
		var feed struct {
			Node    int32 `json:"node"`
			Entries []struct {
				Item struct {
					ID string `json:"id"`
				} `json:"item"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(body, &feed); err != nil || feed.Node != int32(r.node) {
			c.fail(fmt.Errorf("feed of node %d: bad body (%v): %.200s", r.node, err, body))
			return
		}
		c.mu.Lock()
		for _, e := range feed.Entries {
			c.feedIDs[e.Item.ID] = true
		}
		c.mu.Unlock()
	case routeSnapshot:
		var snap struct {
			ID int32 `json:"id"`
		}
		if err := json.Unmarshal(body, &snap); err != nil || snap.ID != int32(r.node) {
			c.fail(fmt.Errorf("snapshot of node %d: bad body (%v): %.200s", r.node, err, body))
		}
	case routeStats:
		var st struct {
			Members int `json:"members"`
		}
		if err := json.Unmarshal(body, &st); err != nil || st.Members != fleetNodes {
			c.fail(fmt.Errorf("stats: bad body (%v): %.200s", err, body))
		}
	case routeItem:
		var e struct {
			Item struct {
				ID string `json:"id"`
			} `json:"item"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Item.ID != item {
			c.fail(fmt.Errorf("item %s: bad body (%v): %.200s", item, err, body))
		}
	case routeFeedback:
		var ack struct {
			Node  int32  `json:"node"`
			Item  string `json:"item"`
			Liked bool   `json:"liked"`
		}
		if err := json.Unmarshal(body, &ack); err != nil || ack.Node != int32(r.node) || ack.Item != item || ack.Liked != r.liked {
			c.fail(fmt.Errorf("feedback ack does not echo node %d item %s liked %v: %.200s", r.node, item, r.liked, body))
		}
	}
}

// finalChecks verifies what only the end state shows: every item a feed
// named was cataloged, and the gateway published each fetched item exactly
// once.
func (c *checker) finalChecks(f *fleet) {
	cat := f.gw.Catalog()
	for id := range c.feedIDs {
		var nid news.ID
		if _, err := fmt.Sscanf(id, "%x", &nid); err != nil {
			c.fail(fmt.Errorf("feed named malformed item id %q", id))
			continue
		}
		if _, ok := cat.Get(nid); !ok {
			c.fail(fmt.Errorf("feed named item %s, which was never cataloged", id))
		}
	}
	if cat.Len() != len(f.src.fetched) || f.gw.Published() != int64(cat.Len()) {
		c.fail(fmt.Errorf("catalog holds %d items and the gateway published %d, but the feeds carried %d unique items",
			cat.Len(), f.gw.Published(), len(f.src.fetched)))
	}
	if len(f.pub.deliveries) == 0 {
		c.fail(fmt.Errorf("no item reached any node"))
	}
}

// runServe measures the serving workload.
func runServe(seed int64, budget time.Duration, traced bool, out *report) error {
	nominal := budget
	if !traced {
		nominal = time.Duration(float64(budget) * nominalShare)
	}
	nominalN := int(nominalRate * nominal.Seconds())
	// Requests for the nominal rate and one load rung; later rungs wrap
	// round the sequence.
	total := nominalN + int(loadRate*loadTime.Seconds())

	var tr *serveTracer
	if traced {
		tr = newServeTracer()
	}
	// Set up several times; measure with the last fleet. A set-up is timed
	// in two parts, input generation and fleet start; between them the live
	// heap holds the benchmark's own state, which heap_bytes_per_peer
	// subtracts.
	var setups []float64
	var f *fleet
	var heap0 uint64
	for k := 0; k < serveSetups; k++ {
		runtime.GC() // start each set-up from a collected heap
		t := time.Now()
		in := makeServeInputs(seed, budget, total)
		gen := time.Since(t)
		heap0 = liveHeap()
		t = time.Now()
		nf, err := startFleet(in, tr)
		if err != nil {
			return err
		}
		if err := nf.waitReady(); err != nil {
			nf.stop()
			return err
		}
		setups = append(setups, (gen + time.Since(t)).Seconds())
		if k < serveSetups-1 {
			nf.stop()
			continue
		}
		f = nf
	}
	in := f.in
	f.startIngest()
	warm := time.Now()
	for f.gw.Catalog().Len() < in.warmItems {
		if time.Since(warm) > 30*time.Second {
			f.stop()
			return fmt.Errorf("gateway ingested %d of %d warm-up items in 30s", f.gw.Catalog().Len(), in.warmItems)
		}
		time.Sleep(10 * time.Millisecond)
	}

	conns := newConns(f.addr)
	defer closeConns(conns)
	chk := &checker{in: in, feedIDs: map[string]bool{}}
	sent := 0
	rung := func(rate float64, n int) rungResult {
		first := sent
		sent += n
		return runRung(conns, rate, n, func(c *loadConn, j int) (bool, func()) {
			return chk.do(c, first+j)
		})
	}
	var rungs []rungResult
	var stats0, stats1 live.FleetStats
	var t0 time.Time
	if traced {
		// Nominal rate only, first half untraced and second half traced.
		rungs = append(rungs, rung(nominalRate, nominalN/2))
		stats0, t0 = f.runner.Stats(), time.Now()
		tr.on.Store(true)
		rungs = append(rungs, rung(nominalRate, nominalN/2))
		tr.on.Store(false)
		stats1 = f.runner.Stats()
	} else {
		rungs = append(rungs, rung(nominalRate, nominalN))
		for t := time.Now(); len(rungs) == 1 || time.Since(t)+loadTime <= budget-nominal; {
			rungs = append(rungs, rung(loadRate, int(loadRate*loadTime.Seconds())))
		}
	}
	end := time.Now()
	f1 := f.pub.deliveryF1(in.opinions(), end)
	f.stop()
	chk.finalChecks(f)
	for _, err := range chk.errs {
		out.fail(err)
	}

	failedReqs := 0
	for i := range rungs {
		failedReqs += rungs[i].failures()
	}
	out.attempted = sent + int(f.gw.Published()) + len(f.errs)
	out.failed = failedReqs + len(f.errs)

	lat := rungs[0].latencies()
	out.e2e("setup_s", median(setups), len(setups))
	out.e2e("latency_ms", quantile(lat, 0.5), len(lat))
	out.e2e("latency_ms_p90", quantile(lat, 0.9), len(lat))
	if traced {
		out.e2e("throughput_per_s", 0, 0) // the traced run offers the nominal rate only
	} else {
		var done int
		var cpu time.Duration
		for _, r := range rungs[1:] {
			done += len(r.samples) - r.failures()
			cpu += r.cpu
		}
		out.e2e("throughput_per_s", float64(done)/cpu.Seconds(), done)
	}
	out.e2e("f1", f1, len(f.pub.at))
	deliverP50 := median(f.pub.deliverMs)
	out.note("http_ms_p50 = latency_ms, http_rps_per_cpu = throughput_per_s")
	out.note(fmt.Sprintf("http_ms_p99 %v ms n=%d", quantile(lat, 0.99), len(lat)))
	out.note(fmt.Sprintf("deliver_ms_p50 %v ms n=%d", deliverP50, len(f.pub.deliverMs)))
	out.note(fmt.Sprintf("failed_frac %v ratio n=%d", ratio(float64(out.failed), float64(out.attempted)), out.attempted))
	for i := range rungs {
		r := &rungs[i]
		out.note(fmt.Sprintf("rung %.1f req/s: n=%d p50 %.3f ms p99 %.3f ms achieved %.1f req/s failed %d lag p99 %.3f ms backlog max %d meets %v ms limit: %v",
			r.rate, len(r.samples), quantile(r.latencies(), 0.5), quantile(r.latencies(), 0.99), r.achievedRate(), r.failures(),
			quantile(r.lags(), 0.99), r.backlogMax, sloMs, r.meetsSLO(sloMs)))
	}
	out.note(fmt.Sprintf("gateway published %d items; %d poll or serve errors", f.gw.Published(), len(f.errs)))

	if traced {
		var lags []float64
		backlog := 0
		for i := range rungs {
			lags = append(lags, rungs[i].lags()...)
			backlog = max(backlog, rungs[i].backlogMax)
		}
		out.layer("loadgen.lag_ms_p99", quantile(lags, 0.99))
		out.layer("loadgen.backlog_max", float64(backlog))
		base := quantile(rungs[0].latencies(), 0.5)
		out.layer("trace.overhead_frac", (quantile(rungs[1].latencies(), 0.5)-base)/base)
		window := end.Sub(t0).Seconds()
		out.layer("live.msgs_per_s", float64(stats1.Messages-stats0.Messages)/window)
		out.layer("live.bytes_per_s", float64(stats1.Bytes-stats0.Bytes)/window)
		out.layer("live.deliver_ms_p50", deliverP50)
		out.layer("source.published", float64(f.gw.Published()))
		out.layer("source.dedup_skipped", float64(f.src.items-int(f.gw.Published())))
	}

	// The stopped fleet's live heap: every node's state, none in flight.
	// What the benchmark kept (response samples, delivery records, checker
	// state) is dropped first, and the inputs are in the baseline.
	rungs, lat, chk = nil, nil, nil
	f.pub.mu.Lock()
	f.pub.at, f.pub.deliverMs, f.pub.deliveries = nil, nil, nil
	f.pub.mu.Unlock()
	f.src.fetched = nil
	out.e2e("heap_bytes_per_peer", (float64(liveHeap())-float64(heap0))/fleetNodes, 1)
	runtime.KeepAlive(f)

	if !traced {
		return nil
	}
	col := f.runner.Collector()
	for k := 0; k < numKinds; k++ {
		out.layer("metrics.msgs."+kindNames[k], float64(col.Messages(metrics.MessageKind(k))))
		out.layer("metrics.bytes."+kindNames[k], float64(col.Bytes(metrics.MessageKind(k))))
	}
	tr.report(out)
	var samples []probeSample
	for id := news.NodeID(0); id < fleetNodes && len(samples) < probeNodes; id++ {
		samples = append(samples, captureNode(f.runner.Node(id)))
	}
	runProbes(samples, out)
	return nil
}
