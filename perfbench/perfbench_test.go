package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wmsn/internal/core"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/scenario"
)

func TestPercentileKnownSamples(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 90, 3.7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{7}, 90, 7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 90, 100},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// A stalled job must make later jobs late: the open loop charges each job
// from its due time, so a stall shows as latency, not as a slower generator.
func TestOpenLoopChargesLatenessFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"type":"job","id":"j","state":"queued","runs":0}` + "\n"))
		w.Write([]byte(`{"type":"done","id":"j","state":"done"}` + "\n"))
	}))
	defer srv.Close()
	defer srv.Client().CloseIdleConnections()

	due := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond}
	outs := openLoop(srv.Client(), srv.URL, [][]byte{[]byte(`{}`)}, due, make([]int, len(due)), 1, time.Now())
	for k, o := range outs {
		if o.err != nil {
			t.Fatalf("job %d: %v", k, o.err)
		}
	}
	if l := outs[0].latencyMS(); l < ms(stall) {
		t.Errorf("stalled job latency %.1f ms, want at least %v", l, stall)
	}
	for k := 1; k < len(outs); k++ {
		// Job k could not be sent before the stalled job finished.
		minLate := ms(stall - due[k])
		if l := outs[k].latencyMS(); l < minLate {
			t.Errorf("job %d latency %.1f ms, want at least %.1f ms behind the stall", k, l, minLate)
		}
		if lag := ms(outs[k].sent - outs[k].due); lag < minLate-1 {
			t.Errorf("job %d generator lag %.1f ms, want about %.1f ms", k, lag, minLate)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), e2eDefs...), layerDefs...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q does not match %s", w, nameRE)
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != d.Better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, got[i], d.Name, d.Unit, d.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eDefs)
	check("per_layer", spec.PerLayer, layerDefs)
}

type lfStack struct{ node.Stack }

func (lfStack) HandleLinkFailure(*packet.Packet) {}

type placedStack struct{ node.Stack }

func (placedStack) SetPlace(int, int, bool) {}

type bothStack struct{ node.Stack }

func (bothStack) HandleLinkFailure(*packet.Packet) {}
func (bothStack) SetPlace(int, int, bool)          {}

func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	for _, c := range []struct {
		st         node.Stack
		lf, placed bool
	}{
		{lfStack{}, true, false},
		{placedStack{}, false, true},
		{bothStack{}, true, true},
		{core.NewSPRGateway(core.DefaultParams(), core.NewMetrics()), false, false},
	} {
		w := wrapTimed(c.st, new(stackTimes))
		_, lf := w.(node.LinkFailureHandler)
		_, pg := w.(core.PlacedGateway)
		if lf != c.lf || pg != c.placed {
			t.Errorf("%T wrapped: link-failure %v placed %v, want %v %v", c.st, lf, pg, c.lf, c.placed)
		}
	}
}

// firstConfigs picks the configs the fidelity tests replay: the first of a
// closed-loop set, one per sweep cell.
func firstConfigs(t *testing.T, workload string, seed int64) []scenario.Config {
	t.Helper()
	cfgs, err := configsFor(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	switch workload {
	case wlSweepFaults:
		return cfgs[:len(cfgs)/sweepSeedsPerCell] // one config per cell
	}
	return cfgs[:1]
}

// The traced pass only observes: with every hook installed, each run must
// produce the digest of the untraced run.
func TestTracedDigestsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's first configs twice")
	}
	for _, w := range workloadNames {
		for i, cfg := range firstConfigs(t, w, defaultSeed) {
			plain, err := scenario.RunE(cfg)
			if err != nil {
				t.Fatalf("%s %d: %v", w, i, err)
			}
			traced, tr, err := tracedOp(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s %d traced: %v", w, i, err)
			}
			if a, b := digest(plain), digest(traced); a != b {
				t.Errorf("%s config %d (%s): traced digest %s, untraced %s", w, i, cfg.Protocol, b, a)
			}
			if tot := tr.handlerTotals(); tot.calls[packet.KindRReq] == 0 {
				t.Errorf("%s config %d: no RREQ handler calls traced", w, i)
			}
		}
	}
}

func TestStoredDigestsMatchFirstConfigs(t *testing.T) {
	exp, err := expectedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		cfgs, _ := configsFor(w, defaultSeed)
		if len(exp[w]) != len(cfgs) {
			t.Fatalf("%s: %d stored digests for %d configs", w, len(exp[w]), len(cfgs))
		}
		r, err := scenario.RunE(cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		if d := digest(r); d != exp[w][0] {
			t.Errorf("%s config 0: digest %s, stored %s", w, d, exp[w][0])
		}
	}
}

// A held-out seed must change every input the program receives and still
// pass the self-consistency checks: repeated runs agree, and a parallel
// RunEach agrees with sequential RunE.
func TestSecondSeedChangesInputsAndStaysConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const other = defaultSeed + 1
	for _, w := range workloadNames {
		a, _ := configsFor(w, defaultSeed)
		b, _ := configsFor(w, other)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d vs %d configs", w, len(a), len(b))
		}
		for i := range a {
			if a[i].Seed == b[i].Seed {
				t.Errorf("%s config %d: seed %d under both benchmark seeds", w, i, a[i].Seed)
			}
		}
	}
	d1, j1 := arrivals(defaultSeed, probeJobs)
	d2, j2 := arrivals(other, probeJobs)
	if d1[0] == d2[0] && j1[0] == j2[0] {
		t.Error("the service probe's arrival schedule does not depend on the seed")
	}

	sweep := firstConfigs(t, wlSweepFaults, other)
	rep := &report{metrics: map[string]float64{}}
	chk, _ := newChecker(len(sweep), nil, rep)
	sweepPass(context.Background(), sweep, 2, func(i int, r scenario.Result, err error, _ time.Duration) {
		if err != nil {
			t.Errorf("sweep config %d: %v", i, err)
			return
		}
		chk.check(i, "sweep", digest(r))
	})
	checkInProcess(sweep, chk)
	r1, err := scenario.RunE(firstConfigs(t, wlSPRField, other)[0])
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := scenario.RunE(firstConfigs(t, wlSPRField, other)[0])
	if digest(r1) != digest(r2) {
		t.Error("spr-field: repeated run changed its digest")
	}
	if rep.failed != 0 {
		t.Errorf("seed %d: %d inconsistent results: %v", other, rep.failed, rep.problems)
	}
}

// The daemon's results for a job must carry the digests of the same runs
// made in-process.
func TestDaemonMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a daemon")
	}
	pool := jobPool(defaultSeed)[:2]
	due := []time.Duration{0, 10 * time.Millisecond}
	run, err := driveDaemon(pool, due, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := replayJobs(pool)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{metrics: map[string]float64{}}
	if passed := checkJobs(run.outcomes, refs, rep); rep.failed != 0 || len(passed) != 2 {
		t.Fatalf("daemon jobs: %d failed, %d passed: %v", rep.failed, len(passed), rep.problems)
	}
}

// Each segment's op times are scaled by calibNominal over the mean
// calibration time of the segments within calibRadius of it.
func TestSegmentScalingUsesNeighbourMean(t *testing.T) {
	nominal := ms(calibNominal)
	t0 := time.Now()
	s := &segmenter{}
	// Seven segments: the first runs at half the reference speed, the rest
	// at the reference speed; one op of 100 ms ends in each.
	for i := 0; i < 7; i++ {
		cal := []float64{nominal, nominal}
		if i == 0 {
			cal = []float64{2 * nominal, 2 * nominal}
		}
		end := t0.Add(time.Duration(i+1) * time.Second)
		s.segs = append(s.segs, segment{start: end.Add(-time.Second), end: end, cal: cal})
		s.ops = append(s.ops, opSample{end: end.Add(-time.Millisecond), cpu: 100 * time.Millisecond})
	}
	// Segment 0 sees the samples of segments 0-2, segment 1 of 0-3, segment
	// 2 of 0-4 and segment 3 of 1-5: means of 4/3, 5/4, 6/5 and 1 times
	// nominal.
	want := []float64{75, 80, 100 / 1.2, 100, 100, 100, 100}
	for i, o := range s.scaled() {
		if got := ms(o.cpu); math.Abs(got-want[i]) > 1e-6 {
			t.Errorf("op %d: %.4f ms at the reference speed, want %.4f", i, got, want[i])
		}
	}
	for i, g := range s.segs {
		if g.ops != 1 {
			t.Errorf("segment %d: %d ops, want 1", i, g.ops)
		}
	}
}

// The calibration child answers every request byte with one positive CPU
// time and stops at the end of its input.
func TestServeCalibrationAnswersEachRequest(t *testing.T) {
	var out strings.Builder
	if err := serveCalibration(strings.NewReader("\x01\x01"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 {
		t.Fatalf("%d answers to 2 requests: %q", len(lines), out.String())
	}
	for _, l := range lines {
		if ns, err := strconv.ParseInt(l, 10, 64); err != nil || ns <= 0 {
			t.Errorf("answer %q: want a positive count of nanoseconds", l)
		}
	}
}
