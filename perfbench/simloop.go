package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/runner"
	"wmsn/internal/scenario"
)

// report collects one benchmark run's outcome.
type report struct {
	attempted, failed int
	segments          []segmentLog // the measuring window's segments
	problems          []string
	metrics           map[string]float64
	spans             *spanLog
}

// failOp counts a failed op and keeps its reason for standard error.
func (r *report) failOp(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checker holds the reference digest of every config of a workload: the
// stored digests for the default seed, otherwise the first digest observed.
type checker struct {
	ref []string
	rep *report
}

func newChecker(n int, stored []string, rep *report) (*checker, error) {
	c := &checker{ref: make([]string, n), rep: rep}
	if stored != nil {
		if len(stored) != n {
			return nil, fmt.Errorf("stored digests: %d, want %d", len(stored), n)
		}
		copy(c.ref, stored)
	}
	return c, nil
}

// check compares an op's digest with the reference and counts a mismatch as
// a failed op. It reports whether the op passed.
func (c *checker) check(i int, what, d string) bool {
	if c.ref[i] == "" {
		c.ref[i] = d
		return true
	}
	if c.ref[i] != d {
		c.rep.failOp("config %d (%s): digest %s, want %s", i, what, d, c.ref[i])
		return false
	}
	return true
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Each repetition starts from a collected heap, so it does not pay
// for garbage left by the one before.
const setupReps = 9

// setupBuild is the set-up of a simulator workload: BuildE of every config
// in the set, timed in process CPU time and scaled to the reference speed by
// a calibration sample taken before each repetition.
func setupBuild(cfgs []scenario.Config, cal *calibrator) (float64, error) {
	var xs, cals []float64
	for r := 0; r < setupReps; r++ {
		d, err := cal.sample()
		if err != nil {
			return 0, err
		}
		cals = append(cals, ms(d))
		runtime.GC()
		t0 := cpuTime()
		for i := range cfgs {
			if _, err := scenario.BuildE(cfgs[i]); err != nil {
				return 0, fmt.Errorf("build config %d: %w", i, err)
			}
		}
		xs = append(xs, (cpuTime() - t0).Seconds())
	}
	return median(xs) * speedFactor(cals), nil
}

// minOps is the fewest ops the end-to-end metrics should be computed over:
// ref_cpu_ms_p90 needs ten samples beyond it. A run that has fewer when its
// time is up keeps going for at most a quarter of its measuring time more.
const minOps = 100

// measuring reports whether a measuring window that opened at start should
// run another op (or chunk), given the ops it has measured. A sweep-faults
// chunk is canceled at the same limits.
func measuring(start time.Time, dur time.Duration, ops int) bool {
	el := time.Since(start)
	return el < dur || (ops < minOps && el < dur+dur/4)
}

// runSequential is the closed loop of spr-field and secmlr-rounds: one
// scenario.RunContext at a time, each followed by a calibration sample,
// cycling through the config set until the measuring time is up.
func runSequential(cfgs []scenario.Config, stored []string, dur time.Duration, rep *report, cal *calibrator) error {
	ctx := context.Background()
	chk, err := newChecker(len(cfgs), stored, rep)
	if err != nil {
		return err
	}
	setup, err := setupBuild(cfgs, cal)
	if err != nil {
		return err
	}
	// One unmeasured op lets the run arena and the heap reach steady state.
	r, err := scenario.RunContext(ctx, cfgs[0])
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	chk.check(0, "warm-up", digest(r))
	seg := newSegmenter()
	for i := 0; measuring(seg.start0, dur, len(seg.ops)); i++ {
		c := i % len(cfgs)
		cpu0 := cpuTime()
		r, err := scenario.RunContext(ctx, cfgs[c])
		cpu := cpuTime() - cpu0
		end := time.Now()
		rep.attempted++
		if err == nil && chk.check(c, "run", digest(r)) {
			seg.op(opSample{end: end, cpu: cpu, rx: r.Radio.Deliveries})
		} else if err != nil {
			rep.failOp("config %d: %v", c, err)
		}
		d, err := cal.sample()
		if err != nil {
			return err
		}
		seg.calib(d)
		seg.maybeCut()
	}
	seg.cut()
	rep.metrics = seg.e2e(setup)
	rep.segments = seg.log()
	return nil
}

// sweepPass runs one RunEach pass over cfgs on workers, handing each
// delivered result and its CPU time to fn. An op's CPU time is the process
// CPU time from the creation of its first stack to RunEach delivering its
// result, in submission order, to the caller; with one worker no other op
// runs in that interval.
func sweepPass(ctx context.Context, cfgs []scenario.Config, workers int, fn func(i int, r scenario.Result, err error, cpu time.Duration)) {
	starts := make([]time.Duration, len(cfgs))
	run := make([]scenario.Config, len(cfgs))
	for i := range cfgs {
		run[i] = withStartStamp(cfgs[i], func() { starts[i] = cpuTime() })
	}
	_ = scenario.RunEach(ctx, workers, run, func(i int, r scenario.Result, err error) {
		fn(i, r, err, cpuTime()-starts[i])
	})
}

// sweepChunk is how many copies of the config set one RunEach call of the
// sweep-faults loop runs: enough that one call usually spans the whole
// measuring time, so no pass boundary (and, with more than one worker, no
// idle tail of a call) falls inside it.
const sweepChunk = 8

// sweepWorkers is the RunEach width of the measured sweep-faults loop. With
// one worker per CPU the loop's time metrics spread by 0.19-0.22 of their
// median over ten seeds on a 2-vCPU VM, where a second worker added only
// 10-40% throughput and that share drifted from minute to minute; with one
// worker they spread by 0.03-0.08. The traced pass keeps one worker per CPU
// for runner.cpu_utilization.
const sweepWorkers = 1

// runSweep is the sweep-faults throughput loop: RunEach over repeated copies
// of the config set with sweepWorkers workers, canceled when the measuring
// time is up (runs cut short are not counted), then every config once more
// through scenario.RunE on the caller's goroutine as the reference. With one
// worker RunEach delivers each result before it starts the next run, so the
// calibration sample taken on delivery falls between two runs.
func runSweep(cfgs []scenario.Config, stored []string, dur time.Duration, rep *report, cal *calibrator) error {
	chk, err := newChecker(len(cfgs), stored, rep)
	if err != nil {
		return err
	}
	setup, err := setupBuild(cfgs, cal)
	if err != nil {
		return err
	}
	chunk := make([]scenario.Config, 0, sweepChunk*len(cfgs))
	for c := 0; c < sweepChunk; c++ {
		chunk = append(chunk, cfgs...)
	}
	var calErr error
	seg := newSegmenter()
	for calErr == nil && measuring(seg.start0, dur, len(seg.ops)) {
		end := seg.start0.Add(dur)
		if time.Since(seg.start0) >= dur {
			end = seg.start0.Add(dur + dur/4) // still short of minOps
		}
		ctx, cancel := context.WithDeadline(context.Background(), end)
		sweepPass(ctx, chunk, sweepWorkers, func(i int, r scenario.Result, err error, cpu time.Duration) {
			if errors.Is(err, scenario.ErrCanceled) {
				return
			}
			rep.attempted++
			if err != nil {
				rep.failOp("config %d: %v", i%len(cfgs), err)
			} else if chk.check(i%len(cfgs), "sweep", digest(r)) {
				seg.op(opSample{end: time.Now(), cpu: cpu, rx: r.Radio.Deliveries})
			}
			if calErr == nil {
				var d time.Duration
				d, calErr = cal.sample()
				seg.calib(d)
			}
			seg.maybeCut()
		})
		cancel()
	}
	if calErr != nil {
		return calErr
	}
	seg.cut()
	rep.metrics = seg.e2e(setup)
	rep.segments = seg.log()
	checkInProcess(cfgs, chk)
	return nil
}

// checkInProcess runs every config once through scenario.RunE and compares
// it with the reference digest.
func checkInProcess(cfgs []scenario.Config, chk *checker) {
	for i := range cfgs {
		r, err := scenario.RunE(cfgs[i])
		if err != nil {
			chk.rep.failOp("config %d in-process: %v", i, err)
			continue
		}
		chk.check(i, "in-process RunE", digest(r))
	}
}

// tracedOp runs one op with the traced pass's hooks and returns its trace.
func tracedOp(ctx context.Context, cfg scenario.Config) (scenario.Result, *opTrace, error) {
	tr := &opTrace{}
	c := instrument(cfg, tr)
	tr.start = time.Now()
	r, err := scenario.RunContext(ctx, c)
	tr.end = time.Now()
	return r, tr, err
}

// untracedOp runs one op as the measured loop does, stamping only the end
// of its build through Mutate, and brackets it with runtime counters.
func untracedOp(ctx context.Context, cfg scenario.Config) (scenario.Result, time.Duration, rtSample, error) {
	var built time.Time
	cfg.Mutate = func(*scenario.Net) { built = time.Now() }
	rt0 := readRT()
	r, err := scenario.RunContext(ctx, cfg)
	end := time.Now()
	return r, end.Sub(built), readRT().sub(rt0), err
}

// layerAcc accumulates the per-layer metrics of the traced pass.
type layerAcc struct {
	ops                     int
	build, traffic, handler time.Duration
	events                  uint64
	tx, rx, lost            uint64
	calls                   [numSlots]uint64
	kindNS                  [numSlots]int64
	reroutes                uint64
	arqTx, arqRetry, arqAck uint64
	qdrops                  uint64
	faults, atkDrop, atkInj uint64
	obsOps                  int
	obsEvents               uint64

	untracedOps     int
	untracedTraffic time.Duration
	tracedTraffic   time.Duration // of the ops paired with untraced ones
	untracedRx      uint64
	rt              rtSample
}

func (a *layerAcc) addTraced(r scenario.Result, tr *opTrace) {
	a.ops++
	a.build += tr.built.Sub(tr.start)
	a.traffic += tr.end.Sub(tr.built)
	tot := tr.handlerTotals()
	for k := range tot.calls {
		a.calls[k] += tot.calls[k]
		a.kindNS[k] += tot.ns[k]
		a.handler += time.Duration(tot.ns[k])
	}
	a.events += tr.progress.Snapshot().Events
	a.tx += r.Radio.Transmissions
	a.rx += r.Radio.Deliveries
	a.lost += r.Radio.Lost
	m := r.Metrics
	a.reroutes += m.Reroutes
	a.arqTx += m.LinkTxQueued
	a.arqRetry += m.LinkRetries
	a.arqAck += m.LinkAcked
	a.qdrops += m.QueueDrops
	a.faults += m.FaultsInjected
	a.atkDrop += m.AttackerDropped
	a.atkInj += m.AttackerInjected
	if tr.events != nil {
		a.obsOps++
		for _, n := range tr.events.n {
			a.obsEvents += n
		}
	}
}

func (a *layerAcc) addUntraced(r scenario.Result, traffic time.Duration, rt rtSample) {
	a.untracedOps++
	a.untracedTraffic += traffic
	a.untracedRx += r.Radio.Deliveries
	a.rt.add(rt)
}

// fill writes the op-derived layer metrics into m.
func (a *layerAcc) fill(m map[string]float64) {
	ops := float64(a.ops)
	per := func(v uint64) float64 { return ratio(float64(v), ops) }
	var calls uint64
	for _, c := range a.calls {
		calls += c
	}
	m["scenario.build_ms"] = ratio(ms(a.build), ops)
	m["scenario.traffic_ms"] = ratio(ms(a.traffic), ops)
	m["sim.events_per_op"] = per(a.events)
	m["sim.ns_per_event"] = ratio(float64(a.traffic), float64(a.events))
	m["radio.tx_per_op"] = per(a.tx)
	m["radio.rx_per_op"] = per(a.rx)
	m["radio.fanout"] = ratio(float64(a.rx), float64(a.tx))
	m["radio.lost_per_op"] = per(a.lost)
	m["core.handle_calls_per_op"] = per(calls)
	m["core.handle_ns_per_call"] = ratio(float64(a.handler), float64(calls))
	m["core.handle_share"] = ratio(float64(a.handler), float64(a.traffic))
	for _, hk := range handlerKinds {
		m["core.handle_share."+hk.name] = ratio(float64(a.kindNS[hk.kind]), float64(a.handler))
		m["core.handle_calls."+hk.name] = per(a.calls[hk.kind])
	}
	m["core.reroutes_per_op"] = per(a.reroutes)
	m["core.dispatch_self_ms"] = ratio(ms(a.traffic-a.handler), ops)
	m["node.arq.tx_per_op"] = per(a.arqTx)
	m["node.arq.retry_per_op"] = per(a.arqRetry)
	m["node.arq.ack_ratio"] = ratio(float64(a.arqAck), float64(a.arqTx+a.arqRetry))
	m["node.arq.queue_drops_per_op"] = per(a.qdrops)
	m["fault.injected_per_op"] = per(a.faults)
	m["attack.dropped_per_op"] = per(a.atkDrop)
	m["attack.injected_per_op"] = per(a.atkInj)
	m["obs.events_per_op"] = ratio(float64(a.obsEvents), float64(a.obsOps))
	m["obs.trace_overhead"] = ratio(float64(a.tracedTraffic), float64(a.untracedTraffic)) - 1
	m["runtime.allocs_per_rx"] = ratio(a.rt.objs, float64(a.untracedRx))
	m["runtime.bytes_per_rx"] = ratio(a.rt.bytes, float64(a.untracedRx))
	m["runtime.gc_cycles_per_op"] = ratio(a.rt.gcs, float64(a.untracedOps))
	m["runtime.gc_cpu_share"] = ratio(a.rt.gcCPU, a.rt.allCPU)
}

// tracePairs is the traced pass of a set of in-process configs: each config
// runs untraced and then traced, cycling through the set until dur is up, or
// through every config once when dur is 0. The two digests must match: the
// hooks may observe the model but never change it.
func tracePairs(cfgs []scenario.Config, chk *checker, dur time.Duration, rep *report, acc *layerAcc) {
	ctx := context.Background()
	w := openWindow()
	deadline := w.wall.Add(dur)
	once := 1 // with a measuring time, at least one pair
	if dur == 0 {
		once = len(cfgs)
	}
	for i := 0; i < once || time.Now().Before(deadline); i++ {
		c := i % len(cfgs)
		rep.attempted++
		ru, traffic, rt, err := untracedOp(ctx, cfgs[c])
		if err != nil {
			rep.failOp("config %d untraced: %v", c, err)
			continue
		}
		rt2, tr, err := tracedOp(ctx, cfgs[c])
		if err != nil {
			rep.failOp("config %d traced: %v", c, err)
			continue
		}
		if !chk.check(c, "untraced", digest(ru)) || !chk.check(c, "traced", digest(rt2)) {
			continue
		}
		acc.addUntraced(ru, traffic, rt)
		acc.addTraced(rt2, tr)
		acc.tracedTraffic += tr.end.Sub(tr.built)
		rep.spans.addOp(fmt.Sprintf("op config=%d", c), tr)
	}
	w.close()
	rep.metrics["runner.cpu_utilization"] = ratio(w.dCPU.Seconds(), w.dWall.Seconds())
}

// watchDone observes when traced runs finish: it polls each run's Progress
// probe and stamps the moment Done flips, and closes the returned channel
// once every run is done. RunEach delivers results in submission order, so
// the delivery time alone would charge a run for waiting behind a slower
// lower-index run.
func watchDone(trs []*opTrace) <-chan struct{} {
	const poll = 200 * time.Microsecond
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(poll)
		defer t.Stop()
		for left := len(trs); left > 0; {
			<-t.C
			now := time.Now()
			for _, tr := range trs {
				if tr.end.IsZero() && tr.progress.Snapshot().Done {
					tr.end = now
					left--
				}
			}
		}
	}()
	return done
}

// traceSweep is the traced pass of sweep-faults: untraced and traced RunEach
// passes alternate until dur is up. Traced ops stamp their start at the
// first stack creation, their build end in Mutate and their end when their
// Progress probe reports Done.
func traceSweep(cfgs []scenario.Config, chk *checker, dur time.Duration, rep *report, acc *layerAcc) {
	workers := runner.DefaultWorkers()
	var cpu, busy time.Duration
	deadline := time.Now().Add(dur)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		w := openWindow()
		rt0 := readRT()
		sweepPass(context.Background(), cfgs, workers, func(i int, r scenario.Result, err error, _ time.Duration) {
			rep.attempted++
			if err != nil {
				rep.failOp("config %d untraced: %v", i, err)
				return
			}
			if chk.check(i, "untraced", digest(r)) {
				acc.untracedOps++
				acc.untracedRx += r.Radio.Deliveries
			}
		})
		acc.rt.add(readRT().sub(rt0))
		w.close()
		cpu += w.dCPU
		busy += time.Duration(workers) * w.dWall
		acc.untracedTraffic += w.dWall

		trs := make([]*opTrace, len(cfgs))
		run := make([]scenario.Config, len(cfgs))
		for i := range cfgs {
			trs[i] = &opTrace{}
			tr := trs[i]
			run[i] = withStartStamp(instrument(cfgs[i], tr), func() { tr.start = time.Now() })
		}
		done := watchDone(trs)
		results := make([]scenario.Result, len(cfgs))
		ok := make([]bool, len(cfgs))
		t0 := time.Now()
		_ = scenario.RunEach(context.Background(), workers, run, func(i int, r scenario.Result, err error) {
			rep.attempted++
			if err != nil {
				trs[i].progress.MarkDone() // a run that failed to build never flags Done
				rep.failOp("config %d traced: %v", i, err)
				return
			}
			results[i], ok[i] = r, chk.check(i, "traced", digest(r))
		})
		acc.tracedTraffic += time.Since(t0)
		<-done // every run has flagged Done before RunEach returns
		for i := range trs {
			if ok[i] {
				acc.addTraced(results[i], trs[i])
				rep.spans.addOp(fmt.Sprintf("op config=%d", i), trs[i])
			}
		}
	}
	rep.metrics["runner.cpu_utilization"] = ratio(cpu.Seconds(), busy.Seconds())
}

// withStartStamp returns cfg with a StackWrapper that calls mark when the
// run creates its first stack and then defers to cfg's own wrapper, if any.
// Without one it returns every stack unchanged, so the run is the untraced
// run.
func withStartStamp(cfg scenario.Config, mark func()) scenario.Config {
	inner := cfg.StackWrapper
	marked := false
	cfg.StackWrapper = func(id packet.NodeID, st node.Stack) node.Stack {
		if !marked {
			marked = true
			mark()
		}
		if inner == nil {
			return st
		}
		return inner(id, st)
	}
	return cfg
}
