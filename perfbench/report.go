package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with tracing off, as
// declared in BENCHMARK.json. Each is defined on every workload: on sim-*
// the unit of work is one Engine.Step (latency_ms is the mean step time),
// on serve one HTTP request (latency_ms is the median).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"latency_ms_p90", "ms"},
	{"throughput_per_s", "1/s"},
	{"heap_bytes_per_peer", "B"},
	{"f1", "ratio"},
}

// perLayer lists the metrics of a traced run, as declared in BENCHMARK.json.
// A workload that does not reach a layer reports 0 for its metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.bootstrap_ms", "ms"},
		{"sim.step_self_ms_p50", "ms"},
	}
	for _, ph := range phaseNames {
		defs = append(defs, metricDef{"sim.phase." + ph + "_ms_p50", "ms"})
	}
	defs = append(defs,
		metricDef{"sim.maintain.busy_frac", "ratio"},
		metricDef{"sim.beep.busy_frac", "ratio"},
		metricDef{"sim.allocs_per_cycle", "count"},
		metricDef{"sim.alloc_bytes_per_cycle", "B"},
		metricDef{"core.receive.calls", "count"},
		metricDef{"core.receive.ns_p50", "ns"},
		metricDef{"core.receive.dup_frac", "ratio"},
		metricDef{"core.publish.calls", "count"},
		metricDef{"core.publish.ns_p50", "ns"},
		metricDef{"core.inject_rps.ns_p50", "ns"},
		metricDef{"core.inject_rps.ms_sum", "ms"},
		metricDef{"core.begin_cycle.ns_p50", "ns"},
		metricDef{"core.note_departure.calls", "count"},
		metricDef{"core.cold_start.ns_p50", "ns"},
		metricDef{"core.rejoin.ns_p50", "ns"},
	)
	for _, k := range kindNames {
		defs = append(defs, metricDef{"metrics.msgs." + k, "count"}, metricDef{"metrics.bytes." + k, "B"})
	}
	for _, p := range probeNames {
		if p == "wire.encode" || p == "wire.decode" {
			defs = append(defs, metricDef{p + "_ns_per_kb", "ns/KiB"})
		} else {
			defs = append(defs, metricDef{p + ".ns_p50", "ns"})
		}
		defs = append(defs, metricDef{p + ".allocs_per_op", "count"})
	}
	for _, r := range apiRoutes {
		defs = append(defs, metricDef{"api." + r + ".ms_p50", "ms"}, metricDef{"api." + r + ".ms_p99", "ms"})
	}
	defs = append(defs, metricDef{"api.self_ms_p50", "ms"})
	for _, c := range liveCalls {
		defs = append(defs, metricDef{"live." + c + ".ms_p50", "ms"}, metricDef{"live." + c + ".ms_p99", "ms"})
	}
	defs = append(defs,
		metricDef{"live.feed.entries_p50", "count"},
		metricDef{"live.msgs_per_s", "1/s"},
		metricDef{"live.bytes_per_s", "B/s"},
		metricDef{"live.deliver_ms_p50", "ms"},
		metricDef{"source.poll.ms_p50", "ms"},
		metricDef{"source.parse.ms_p50", "ms"},
		metricDef{"source.published", "count"},
		metricDef{"source.dedup_skipped", "count"},
		metricDef{"loadgen.lag_ms_p99", "ms"},
		metricDef{"loadgen.backlog_max", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return defs
}()

// traceRecord is one span as written to the trace file: spans of one cycle
// (sim) or one request (serve) share an ID.
type traceRecord struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Node   int32  `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// report accumulates one run's result.
type report struct {
	attempted, failed int
	errs              []error
	values            map[string]float64
	samples           map[string]int
	notes             []string
	spans             []traceRecord
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// fail records a failed output check; the run reports correct=false.
func (r *report) fail(err error) { r.errs = append(r.errs, err) }

// e2e records an end-to-end metric measured over n samples.
func (r *report) e2e(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// layer records a per-layer metric.
func (r *report) layer(name string, v float64) { r.values[name] = v }

// note adds a human-readable line to the output.
func (r *report) note(s string) { r.notes = append(r.notes, s) }

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// write prints the human-readable lines and, last, the result object with
// the end-to-end metrics (traced=false) or the per-layer ones (traced=true).
func (r *report) write(w io.Writer, traced bool) error {
	for _, err := range r.errs {
		fmt.Fprintf(w, "check failed: %v\n", err)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultJSON{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	if !res.Correct && res.Failed == 0 {
		res.Failed = res.Attempted
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if n, ok := r.samples[d.name]; ok {
			fmt.Fprintf(w, "metric %s %v %s n=%d\n", d.name, v, d.unit, n)
		}
		res.Metrics[d.name] = resultValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeTrace writes the retained spans as JSON lines under dir.
func (r *report) writeTrace(dir, name string) error {
	if len(r.spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
