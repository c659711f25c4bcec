package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"whatsup/internal/sim"
)

// TestTracedPeerForwardsOptionalInterfaces pins the decorator's
// transparency: the engine type-asserts every one of these, and a missing
// one silently changes churn behaviour.
func TestTracedPeerForwardsOptionalInterfaces(t *testing.T) {
	var p sim.Peer = &tracedPeer{}
	if _, ok := p.(sim.Crasher); !ok {
		t.Error("tracedPeer is not a sim.Crasher")
	}
	if _, ok := p.(sim.Leaver); !ok {
		t.Error("tracedPeer is not a sim.Leaver")
	}
	if _, ok := p.(sim.Rejoiner); !ok {
		t.Error("tracedPeer is not a sim.Rejoiner")
	}
	if _, ok := p.(sim.ColdStarter); !ok {
		t.Error("tracedPeer is not a sim.ColdStarter")
	}
	if _, ok := p.(sim.DepartureNoticer); !ok {
		t.Error("tracedPeer is not a sim.DepartureNoticer")
	}
	if _, ok := p.(sim.ProfileAdvertiser); !ok {
		t.Error("tracedPeer is not a sim.ProfileAdvertiser")
	}
}

// TestTracedRunsMatchUntraced runs each sim workload with and without the
// tracing decorator and requires the identical collector fingerprint: F1,
// precision, recall and per-kind message and byte counts. On the full-length
// workloads every scheduled publication must also reach its source, which
// the schedule picks online even under churn.
func TestTracedRunsMatchUntraced(t *testing.T) {
	cycles := map[string]int{"sim-gossip": 0, "sim-churn": 0, "sim-beep": 20}
	for _, w := range []string{"sim-gossip", "sim-churn", "sim-beep"} {
		t.Run(w, func(t *testing.T) {
			plain := runSimRep(w, 3, cycles[w], 0, nil)
			tr := newSimTracer()
			traced := runSimRep(w, 3, cycles[w], 0, tr)
			if plain.fp != traced.fp {
				t.Fatalf("traced fingerprint %+v differs from untraced %+v", traced.fp, plain.fp)
			}
			if pubs := len(makeSimInputs(w, 3).pubs); cycles[w] == 0 && tr.calls[callPublish] != int64(pubs) {
				t.Errorf("%d of %d scheduled publications ran", tr.calls[callPublish], pubs)
			}
			if err := checkSim(w, []simRep{plain, traced}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInputsFollowTheSeed checks that a seed determines every generated
// input and that another seed changes them.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range []string{"sim-gossip", "sim-churn", "sim-beep"} {
		a, b, c := makeSimInputs(w, 7).digest(), makeSimInputs(w, 7).digest(), makeSimInputs(w, 8).digest()
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
	}
	// The pairs of a run draw worlds of their own: no sub-seed repeats across
	// nearby seeds and pairs, even modulo 2^31-1 (math/rand's reduction),
	// and pair 1 of one seed does not rerun pair 0 of the seed two above.
	seen := map[int64]string{}
	for s := int64(1); s <= 20; s++ {
		for pair := int64(0); pair < 8; pair++ {
			k := subSeed(s, pair) % (1<<31 - 1)
			if prev, dup := seen[k]; dup {
				t.Fatalf("seed %d pair %d repeats the sub-seed of %s", s, pair, prev)
			}
			seen[k] = fmt.Sprintf("seed %d pair %d", s, pair)
		}
	}
	if makeSimInputs("sim-churn", subSeed(7, 1)).digest() == makeSimInputs("sim-churn", subSeed(9, 0)).digest() {
		t.Error("sim-churn: pair 1 of seed 7 generated the inputs of pair 0 of seed 9")
	}
	if nodeRNG(subSeed(7, 1), 0).Int63() == nodeRNG(subSeed(9, 0), 0).Int63() {
		t.Error("pair 1 of seed 7 gave node 0 the random stream of pair 0 of seed 9")
	}
	a := makeServeInputs(7, 5*time.Second, 500).digest()
	b := makeServeInputs(7, 5*time.Second, 500).digest()
	c := makeServeInputs(8, 5*time.Second, 500).digest()
	if a != b {
		t.Error("serve: seed 7 generated different inputs twice")
	}
	if a == c {
		t.Error("serve: seeds 7 and 8 generated the same inputs")
	}
}

// TestGeneratorKeepsUp runs the open-loop generator against a no-op handler
// at the load rate: its own lag must stay within lagBoundMs and its
// backlog must not grow, so the serve workload's rates measure the server.
func TestGeneratorKeepsUp(t *testing.T) {
	runtime.GC() // collect the sim tests' heap before timing
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	conns := newConns(strings.TrimPrefix(srv.URL, "http://"))
	defer closeConns(conns)
	top := float64(loadRate)
	res := runRung(conns, top, int(top*3), func(c *loadConn, i int) (bool, func()) {
		status, _, err := c.do(http.MethodGet, "/", i, nil)
		return err == nil && status == http.StatusOK, nil
	})
	if f := res.failures(); f > 0 {
		t.Fatalf("%d requests to the no-op handler failed", f)
	}
	if lag := quantile(res.lags(), 0.99); lag > lagBoundMs {
		t.Errorf("generator lag p99 %.3f ms exceeds %v ms at %v req/s", lag, lagBoundMs, top)
	}
	if !res.meetsSLO(sloMs) {
		t.Errorf("no-op handler misses the %v ms limit at %v req/s", sloMs, top)
	}
}

// TestServeChecksPass runs a short serving workload and requires its output
// checks to pass and every end-to-end metric to be measured.
func TestServeChecksPass(t *testing.T) {
	out := newReport()
	if err := runServe(5, 4*time.Second, false, out); err != nil {
		t.Fatal(err)
	}
	if len(out.errs) > 0 {
		t.Fatalf("output checks failed: %v", out.errs)
	}
	for _, d := range endToEnd {
		if v, ok := out.values[d.name]; !ok || v <= 0 {
			t.Errorf("%s = %v, want a positive measurement", d.name, v)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !isSimWorkload(w.Name) && w.Name != "serve" {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		units := map[string]string{}
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		if len(units) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(units), len(want))
		}
		for _, d := range want {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: the code reports %s (%s), BENCHMARK.json has unit %q", kind, d.name, d.unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestUnionLen(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 2}, {1, 3}, {7, 10}, {12, 13}}
	if got := unionLen(ivs); got != 9 {
		t.Fatalf("unionLen = %d, want 9", got)
	}
}

// TestSteadyCyclesTakesThePairsShorter checks that a pair's step times are
// the per-cycle minimum over its untraced repetitions.
func TestSteadyCyclesTakesThePairsShorter(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	a := simRep{cycles: ms(10, 50, 30), cycleCPU: ms(20, 60, 55)}
	b := simRep{cycles: ms(40, 20, 30), cycleCPU: ms(15, 90, 50)}
	wall, cpu := steadyCycles([]simRep{a, b})
	if !slices.Equal(wall, ms(10, 20, 30)) || !slices.Equal(cpu, ms(15, 60, 50)) {
		t.Errorf("steadyCycles = %v, %v", wall, cpu)
	}
	prefix := simRep{cycles: ms(5, 60), cycleCPU: ms(30, 10)}
	wall, cpu = steadyCycles([]simRep{a, prefix})
	if !slices.Equal(wall, ms(5, 50, 30)) || !slices.Equal(cpu, ms(20, 10, 55)) {
		t.Errorf("steadyCycles with a shorter second repetition = %v, %v", wall, cpu)
	}
	b.traced = true
	wall, cpu = steadyCycles([]simRep{a, b})
	if !slices.Equal(wall, a.cycles) || !slices.Equal(cpu, a.cycleCPU) {
		t.Errorf("a traced repetition was counted: %v, %v", wall, cpu)
	}
	if &wall[0] == &a.cycles[0] {
		t.Error("steadyCycles returned the repetition's own slice")
	}
}

// TestCheckSimComparesPrefixes checks that a second repetition of fewer
// cycles is held to the first repetition's fingerprint after as many.
func TestCheckSimComparesPrefixes(t *testing.T) {
	fp := func(beeps int64) fingerprint {
		f := fingerprint{F1: 0.5}
		for k := range f.Msgs {
			f.Msgs[k] = 1
		}
		f.Msgs[0] = beeps
		return f
	}
	a := simRep{cycles: make([]time.Duration, 3), fp: fp(30), fpAt: fp(20)}
	if err := checkSim("sim-beep", []simRep{a, {cycles: make([]time.Duration, 2), fp: fp(20)}}); err != nil {
		t.Errorf("matching prefix rejected: %v", err)
	}
	if err := checkSim("sim-beep", []simRep{a, {cycles: make([]time.Duration, 2), fp: fp(30)}}); err == nil {
		t.Error("a prefix was held to the full run's fingerprint")
	}
	if err := checkSim("sim-beep", []simRep{a, {cycles: make([]time.Duration, 3), fp: fp(20)}}); err == nil {
		t.Error("a full rerun was held to the prefix fingerprint")
	}
}
