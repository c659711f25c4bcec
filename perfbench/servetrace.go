package main

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"whatsup/internal/api"
	"whatsup/internal/live"
	"whatsup/internal/news"
)

// requestIDHeader carries the generator's request index, the trace id of
// the request's spans.
const requestIDHeader = "X-Perfbench-Request"

var liveCalls = []string{"feed", "snapshot", "feedback", "stats", "publish"}

// serveTracer collects spans of the serving path while on is set.
type serveTracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	apiMs   map[string][]float64
	selfMs  []float64
	liveMs  map[string][]float64
	entries []float64
	pollMs  []float64
	parseMs []float64
	records []traceRecord
}

func newServeTracer() *serveTracer {
	return &serveTracer{epoch: time.Now(), apiMs: map[string][]float64{}, liveMs: map[string][]float64{}}
}

func (t *serveTracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// live records a call into the fleet made outside a request (publish).
func (t *serveTracer) live(call string, d time.Duration) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.liveMs[call] = append(t.liveMs[call], ms(d))
	t.mu.Unlock()
}

func (t *serveTracer) poll(d time.Duration) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.pollMs = append(t.pollMs, ms(d))
	t.mu.Unlock()
}

func (t *serveTracer) parse(d time.Duration) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.parseMs = append(t.parseMs, ms(d))
	t.mu.Unlock()
}

// childSpan is one fleet call made while serving a request.
type childSpan struct {
	call       string
	start, end time.Time
}

// tracedFleet is an api.Fleet over the runner that records each call into
// the request's trace. One is built per traced request.
type tracedFleet struct {
	runner  *live.Runner
	spans   []childSpan
	entries int
}

func (f *tracedFleet) record(call string, start time.Time) {
	f.spans = append(f.spans, childSpan{call, start, time.Now()})
}

func (f *tracedFleet) Feed(id news.NodeID) ([]live.FeedEntry, error) {
	t := time.Now()
	out, err := f.runner.Feed(id)
	f.record("feed", t)
	f.entries = len(out)
	return out, err
}

func (f *tracedFleet) Feedback(id news.NodeID, item news.ID, liked bool) error {
	t := time.Now()
	err := f.runner.Feedback(id, item, liked)
	f.record("feedback", t)
	return err
}

func (f *tracedFleet) Snapshot(id news.NodeID) (live.NodeSnapshot, error) {
	t := time.Now()
	out, err := f.runner.Snapshot(id)
	f.record("snapshot", t)
	return out, err
}

func (f *tracedFleet) Members() []live.Member { return f.runner.Members() }

func (f *tracedFleet) Stats() live.FleetStats {
	t := time.Now()
	out := f.runner.Stats()
	f.record("stats", t)
	return out
}

// tracingHandler serves through a per-request api.Server over a tracedFleet
// while tracing is on, and through the plain server otherwise. The request
// id header names the generated request, and so its route.
type tracingHandler struct {
	runner *live.Runner
	items  api.Items
	reqs   []request
	plain  http.Handler
	tracer *serveTracer
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(requestIDHeader))
	if !h.tracer.on.Load() || err != nil || id < 0 || id >= len(h.reqs) {
		h.plain.ServeHTTP(w, r)
		return
	}
	fl := &tracedFleet{runner: h.runner}
	t := time.Now()
	api.NewServer(fl, h.items).ServeHTTP(w, r)
	end := time.Now()
	h.tracer.request(apiRoutes[h.reqs[id].route], id, t, end, fl)
}

// request folds one traced request: the handler span and its fleet spans.
func (t *serveTracer) request(route string, req int, start, end time.Time, fl *tracedFleet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	name, id := "api."+route, fmt.Sprintf("req-%d", req)
	t.apiMs[route] = append(t.apiMs[route], ms(end.Sub(start)))
	t.records = append(t.records, traceRecord{ID: id, Name: name, Start: t.ns(start), End: t.ns(end)})
	child := time.Duration(0)
	for _, s := range fl.spans {
		child += s.end.Sub(s.start) // calls are sequential within a request
		t.liveMs[s.call] = append(t.liveMs[s.call], ms(s.end.Sub(s.start)))
		t.records = append(t.records, traceRecord{ID: id, Name: "live." + s.call, Parent: name, Start: t.ns(s.start), End: t.ns(s.end)})
		if s.call == "feed" {
			t.entries = append(t.entries, float64(fl.entries))
		}
	}
	t.selfMs = append(t.selfMs, ms(end.Sub(start)-child))
}

// report emits the api, live and source per-layer metrics.
func (t *serveTracer) report(out *report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range apiRoutes {
		out.layer("api."+r+".ms_p50", quantile(t.apiMs[r], 0.5))
		out.layer("api."+r+".ms_p99", quantile(t.apiMs[r], 0.99))
	}
	out.layer("api.self_ms_p50", median(t.selfMs))
	for _, c := range liveCalls {
		out.layer("live."+c+".ms_p50", quantile(t.liveMs[c], 0.5))
		out.layer("live."+c+".ms_p99", quantile(t.liveMs[c], 0.99))
	}
	out.layer("live.feed.entries_p50", median(t.entries))
	out.layer("source.poll.ms_p50", median(t.pollMs))
	out.layer("source.parse.ms_p50", median(t.parseMs))
	out.spans = append(out.spans, t.records...)
}
