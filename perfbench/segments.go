package main

import (
	"sort"
	"time"
)

// The measuring window is cut into segments of about segmentLen. The op
// times of each segment are scaled to the reference speed by the
// calibration samples taken in and around it (calib.go), so a stretch in
// which the shared host ran slower, or gave its CPUs to other guests (steal
// time in /proc/stat), is measured at the same speed as the rest. The run
// log records every segment with its steal share.
const segmentLen = 2 * time.Second

// calibRadius is how many neighbouring segments on each side a segment's
// speed factor also takes calibration samples from: one segment's samples
// alone spread by about 5% around the host's speed, and the host's speed
// holds for longer than a few segments.
const calibRadius = 2

// segment is one stretch of the measuring window.
type segment struct {
	start, end time.Time
	cpu        time.Duration
	cal        []float64 // calibration samples, ms
	bytes      float64
	objs       float64
	steal      float64
	ops        int // ops that ended in it; filled by scaled
}

// segmentLog is a segment as the run log records it.
type segmentLog struct {
	Seconds float64   `json:"s"`
	Ops     int       `json:"ops"`
	CPUms   float64   `json:"cpu_ms"`
	Cal     []float64 `json:"calib_ms"`
	OpCPU   []float64 `json:"op_cpu_ms"` // before scaling
	Factor  float64   `json:"speed_factor"`
	Steal   float64   `json:"steal"`
}

// opSample is one measured op: when it ended, the process CPU time it took
// and the simulated receptions it did.
type opSample struct {
	end time.Time
	cpu time.Duration
	rx  uint64
}

// segmenter cuts a measuring window into segments and keeps the ops and the
// calibration samples. cut, op and calib must be called from one goroutine.
type segmenter struct {
	segs   []segment
	ops    []opSample
	start0 time.Time // the window's start

	start time.Time // the current segment's start
	cpu   time.Duration
	cal   []float64
	rt    rtSample
	stat  []uint64
}

func newSegmenter() *segmenter {
	s := &segmenter{start0: time.Now()}
	s.start, s.cpu, s.rt, s.stat = s.start0, cpuTime(), readRT(), procStat()
	return s
}

// cut closes the current segment and opens the next.
func (s *segmenter) cut() {
	now := time.Now()
	cpu, rt, stat := cpuTime(), readRT(), procStat()
	d := rt.sub(s.rt)
	s.segs = append(s.segs, segment{start: s.start, end: now, cpu: cpu - s.cpu, cal: s.cal,
		bytes: d.bytes, objs: d.objs, steal: stealShare(s.stat, stat)})
	s.start, s.cpu, s.cal, s.rt, s.stat = now, cpu, nil, rt, stat
}

// maybeCut cuts when the current segment has reached segmentLen.
func (s *segmenter) maybeCut() {
	if time.Since(s.start) >= segmentLen {
		s.cut()
	}
}

func (s *segmenter) op(o opSample) { s.ops = append(s.ops, o) }

// calib records a calibration sample taken beside the current segment's ops.
func (s *segmenter) calib(d time.Duration) { s.cal = append(s.cal, ms(d)) }

// factors returns each segment's speed factor, from the calibration samples
// of the segments within calibRadius of it.
func (s *segmenter) factors() []float64 {
	f := make([]float64, len(s.segs))
	for i := range s.segs {
		var cal []float64
		for j := max(0, i-calibRadius); j <= min(len(s.segs)-1, i+calibRadius); j++ {
			cal = append(cal, s.segs[j].cal...)
		}
		f[i] = speedFactor(cal)
	}
	return f
}

// scaled returns the ops, each with its CPU time scaled by the speed factor
// of the segment it ended in, and counts each segment's ops.
func (s *segmenter) scaled() []opSample {
	sort.Slice(s.ops, func(i, j int) bool { return s.ops[i].end.Before(s.ops[j].end) })
	factor := s.factors()
	ops := make([]opSample, 0, len(s.ops))
	k := 0
	for i := range s.segs {
		g := &s.segs[i]
		g.ops = 0
		for ; k < len(s.ops) && !s.ops[k].end.After(g.end); k++ {
			g.ops++
			o := s.ops[k]
			o.cpu = time.Duration(float64(o.cpu) * factor[i])
			ops = append(ops, o)
		}
	}
	return ops
}

// e2e computes the end-to-end metrics over the whole measuring window.
func (s *segmenter) e2e(setup float64) map[string]float64 {
	ops := s.scaled()
	var bytes, objs float64
	for _, g := range s.segs {
		bytes += g.bytes
		objs += g.objs
	}
	opCPU := make([]float64, len(ops))
	var cpu time.Duration
	var rx uint64
	for i, o := range ops {
		opCPU[i] = ms(o.cpu)
		cpu += o.cpu
		rx += o.rx
	}
	n := float64(len(ops))
	return map[string]float64{
		"setup_s":           setup,
		"ref_cpu_ms_p50":    percentile(opCPU, 50),
		"ref_cpu_ms_p90":    percentile(opCPU, 90),
		"ref_cpu_ms_per_op": ratio(ms(cpu), n),
		"rx_per_ref_cpu_s":  ratio(float64(rx), cpu.Seconds()),
		"alloc_mb_per_op":   ratio(bytes/1e6, n),
		"allocs_per_op":     ratio(objs, n),
	}
}

// stealShare is the share of host CPU time stolen between two /proc/stat
// cpu lines (user nice system idle iowait irq softirq steal ...).
func stealShare(a, b []uint64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total uint64
	for i := 0; i < 8; i++ {
		total += b[i] - a[i]
	}
	return ratio(float64(b[7]-a[7]), float64(total))
}

// log renders the segments for the run log.
func (s *segmenter) log() []segmentLog {
	s.scaled()
	factor := s.factors()
	out := make([]segmentLog, len(s.segs))
	k := 0
	for i, g := range s.segs {
		l := segmentLog{Seconds: g.end.Sub(g.start).Seconds(), Ops: g.ops, CPUms: ms(g.cpu),
			Cal: g.cal, Factor: factor[i], Steal: g.steal}
		for _, o := range s.ops[k : k+g.ops] {
			l.OpCPU = append(l.OpCPU, ms(o.cpu))
		}
		k += g.ops
		out[i] = l
	}
	return out
}
