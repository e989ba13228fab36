package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the definition numpy and Python's
// statistics.quantiles(method="inclusive") use. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window brackets a measured interval: wall clock and process CPU.
type window struct {
	wall  time.Time
	cpu   time.Duration
	dWall time.Duration
	dCPU  time.Duration
}

func openWindow() *window { return &window{wall: time.Now(), cpu: cpuTime()} }

func (w *window) close() {
	w.dWall = time.Since(w.wall)
	w.dCPU = cpuTime() - w.cpu
}

// rtSample reads the runtime counters behind the runtime.* layer metrics
// without stopping the world, so it can bracket single ops.
type rtSample struct {
	bytes, objs, gcs float64
	gcCPU, allCPU    float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{bytes: v(0), objs: v(1) + v(2), gcs: v(3), gcCPU: v(4), allCPU: v(5)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.bytes - b.bytes, a.objs - b.objs, a.gcs - b.gcs, a.gcCPU - b.gcCPU, a.allCPU - b.allCPU}
}

func (a *rtSample) add(b rtSample) {
	a.bytes += b.bytes
	a.objs += b.objs
	a.gcs += b.gcs
	a.gcCPU += b.gcCPU
	a.allCPU += b.allCPU
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
