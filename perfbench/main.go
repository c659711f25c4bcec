// Command perfbench is the repository's benchmark: one command that runs a
// named workload from a seed, checks the program's outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) by name and
// unit. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload sim-gossip --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	sim-gossip  ~3 000 static peers, thinned publications: overlay maintenance dominates
//	sim-beep    the Digg-like workload at paper scale: BEEP dissemination dominates
//	sim-churn   sim-gossip plus crash/leave/rejoin traffic and a flash crowd
//	serve       a live fleet behind the HTTP API, fed by the RSS gateway, under
//	            an open-loop request generator
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it carry
// the machine and provenance metadata, each metric with its sample count,
// and the workload's own names for them (cycle_ms_p90, http_ms_p50, ...).
// The exit code is non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// maxRunTime caps a run's measurement whatever -seconds asks for, so every
// run ends well inside three minutes.
const maxRunTime = 120 * time.Second

// traceDir receives the retained spans of traced runs, relative to the
// working directory (the repository root).
const traceDir = ".bench_build/trace"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "sim-gossip, sim-beep, sim-churn or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measurement time")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	budget := time.Duration(*seconds) * time.Second

	printMeta(*workload, *seed, *seconds, traced)
	out := newReport()
	switch {
	case isSimWorkload(*workload):
		runSim(*workload, *seed, budget, traced, out)
	case *workload == "serve":
		if err := runServe(*seed, budget, traced, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if traced {
		name := fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)
		if err := out.writeTrace(traceDir, name); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
	}
	if err := out.write(os.Stdout, traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(out.errs) > 0 {
		return 1
	}
	return 0
}

// printMeta prints the machine and provenance line every result carries.
func printMeta(workload string, seed int64, seconds int, traced bool) {
	meta := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
	}
	line, _ := json.Marshal(meta) // a map of plain values always marshals
	fmt.Printf("meta %s\n", line)
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
