// Command perfbench is the wmsn benchmark. It runs one workload for a fixed
// time and prints, as the last line of standard output, one JSON object
// with the ops attempted and failed, whether every output was correct, and
// the end-to-end metrics (-trace 0) or the per-layer metrics of the traced
// pass (-trace 1). See README.md for the workloads and metric definitions.
//
//	bash perfbench/run.sh --workload spr-field --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"wmsn/internal/scenario"
)

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// logDir is where runs write their logs, relative to the repository root.
var logDir = filepath.Join(".bench_build", "perfbench-out")

// runLog is written under logDir at the end of every run: the environment
// stamp, every metric with the layer table, and the traced pass's spans.
type runLog struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  int          `json:"seconds"`
	Trace    int          `json:"trace"`
	Env      envStamp     `json:"env"`
	Output   output       `json:"output"`
	Problems []string     `json:"problems,omitempty"`
	Segments []segmentLog `json:"segments,omitempty"`
	Layers   []metricDef  `json:"layers,omitempty"`
	Trace1   *spanLog     `json:"trace_spans,omitempty"`
}

func main() {
	workload := flag.String("workload", wlSPRField, "workload: spr-field, secmlr-rounds or sweep-faults")
	seed := flag.Int64("seed", defaultSeed, "benchmark seed; derives every input of the workload")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics of the traced pass")
	writeExpected := flag.String("write-expected", "", "write the default-seed digests of every workload to this file and exit")
	calibrate := flag.Bool("calibrate", false, "serve calibration samples on standard input and output (the benchmark starts itself so)")
	flag.Parse()

	if *calibrate {
		if err := serveCalibration(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *writeExpected != "" {
		if err := writeExpectedFile(*writeExpected); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: want at least 1", *seconds))
	}
	env0 := readEnv()
	rep, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(err)
	}
	out, err := assemble(rep, *trace == 1)
	if err != nil {
		fatal(err)
	}
	log := runLog{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Env: env0.finish(), Output: out, Problems: rep.problems, Segments: rep.segments}
	if *trace == 1 {
		log.Layers = layerDefs
		log.Trace1 = rep.spans
	}
	path, err := writeLog(logDir, &log)
	if err != nil {
		fatal(err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%d ops=%d failed=%d %s steal=%.3f log=%s\n",
		*workload, *seed, *trace, out.Attempted, out.Failed, log.Env.GoVersion, log.Env.StealShare, path)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// assemble checks that exactly the defined metrics were measured and wraps
// them with their units.
func assemble(rep *report, traced bool) (output, error) {
	defs := e2eDefs
	if traced {
		defs = layerDefs
	}
	out := output{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue, len(defs))}
	out.Correct = rep.failed == 0 && rep.attempted > 0
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if extra := len(rep.metrics) - len(defs); extra != 0 {
		var names []string
		for k := range rep.metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		return out, fmt.Errorf("%d undefined metrics among %v", extra, names)
	}
	return out, nil
}

func writeLog(dir string, l *runLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", l.Workload, l.Seed, l.Trace))
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload measures one workload for dur.
func runWorkload(workload string, seed int64, dur time.Duration, traced bool) (*report, error) {
	cfgs, err := configsFor(workload, seed)
	if err != nil {
		return nil, err
	}
	var stored []string
	if seed == defaultSeed {
		exp, err := expectedDigests()
		if err != nil {
			return nil, err
		}
		if stored = exp[workload]; stored == nil {
			return nil, fmt.Errorf("no stored digests for %s", workload)
		}
	}
	rep := &report{metrics: map[string]float64{}}
	if traced {
		rep.spans = &spanLog{epoch: time.Now()}
		return rep, traceWorkload(workload, seed, cfgs, stored, dur, rep)
	}
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	switch workload {
	case wlSweepFaults:
		err = runSweep(cfgs, stored, dur, rep, cal)
	default:
		err = runSequential(cfgs, stored, dur, rep, cal)
	}
	if cerr := cal.close(); err == nil {
		err = cerr
	}
	return rep, err
}

// traceWorkload is the traced pass: the workload's ops with every layer
// hook installed (paired with untraced ops for the overhead and runtime
// figures), the isolated rungs at the workload's shape, and the service
// probe.
func traceWorkload(workload string, seed int64, cfgs []scenario.Config, stored []string, dur time.Duration, rep *report) error {
	chk, err := newChecker(len(cfgs), stored, rep)
	if err != nil {
		return err
	}
	acc := &layerAcc{}
	if workload == wlSweepFaults {
		traceSweep(cfgs, chk, dur, rep, acc)
	} else {
		tracePairs(cfgs, chk, dur, rep, acc)
	}
	acc.fill(rep.metrics)
	if err := runRungs(cfgs[0], rep.metrics["sim.events_per_op"], rep.metrics); err != nil {
		return err
	}
	return traceService(seed, rep)
}

// probeJobs is how many jobs the service probe sends.
const probeJobs = 24

// traceService is the service probe of every traced pass: an in-process
// wmsnd (service.New with default settings behind HTTP on 127.0.0.1) gets
// probeJobs jobs of the CI-smoke shape as an open loop at about half its
// capacity, with at most nproc requests in flight. It fills the service.*
// metrics and checks every result against the same runs made in-process.
func traceService(seed int64, rep *report) error {
	pool := jobPool(seed)
	due, jobs := arrivals(seed, probeJobs)
	run, err := driveDaemon(pool, due, jobs, runtime.NumCPU())
	if err != nil {
		return err
	}
	refs, err := replayJobs(pool)
	if err != nil {
		return err
	}
	var submitMS, waitMS, overMS []float64
	var lagMax float64
	var bytes int
	for _, o := range run.outcomes {
		if lag := ms(o.sent - o.due); lag > lagMax {
			lagMax = lag
		}
	}
	for _, o := range checkJobs(run.outcomes, refs, rep) {
		ref := refs[o.job]
		submitMS = append(submitMS, ms(o.header-o.sent))
		waitMS = append(waitMS, ms(o.result1-o.header-ref.first))
		overMS = append(overMS, o.latencyMS()-ms(ref.wall))
		bytes += o.bytes
		rep.spans.addJob(run.start, &o)
	}
	rep.metrics["service.submit_ms_p50"] = median(submitMS)
	rep.metrics["service.queue_wait_ms_p50"] = median(waitMS)
	rep.metrics["service.overhead_ms_p50"] = median(overMS)
	rep.metrics["service.rejected"] = float64(run.stats.Shed + run.stats.RejectedInvalid)
	rep.metrics["service.backlog_max"] = float64(run.backlog)
	rep.metrics["service.generator_lag_ms_max"] = lagMax
	rep.metrics["service.stream_bytes_per_job"] = ratio(float64(bytes), float64(len(submitMS)))
	return nil
}

// writeExpectedFile records the default-seed digests of every workload by
// running each config once in-process.
func writeExpectedFile(path string) error {
	exp := map[string][]string{}
	for _, w := range workloadNames {
		cfgs, err := configsFor(w, defaultSeed)
		if err != nil {
			return err
		}
		for i, c := range cfgs {
			r, err := scenario.RunE(c)
			if err != nil {
				return fmt.Errorf("%s config %d: %w", w, i, err)
			}
			exp[w] = append(exp[w], digest(r))
		}
	}
	b, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
