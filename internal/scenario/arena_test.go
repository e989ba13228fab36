package scenario

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"wmsn/internal/core"
	"wmsn/internal/sim"
)

// Arena reuse must be invisible: a run drawing storage from a warmed pool
// produces bit-identical results to a fresh GC-managed world, because pools
// carry only empty capacity, never state. Lossy + collisions exercises the
// RNG-sensitive radio paths, faults-free keeps the run quick.
func TestArenaReuseIsInvisible(t *testing.T) {
	cfg := Config{Seed: 11, Protocol: SPR, NumSensors: 30, Side: 120,
		SensorRange: 35, NumGateways: 2, LossRate: 0.1, Collisions: true,
		RunFor: 30 * sim.Second}

	// Reference: no arena (public Build path keeps worlds un-pooled).
	fresh := Build(cfg).RunTraffic()

	// Several pooled runs in sequence so later ones adopt storage harvested
	// from earlier ones (sync.Pool is per-P; single goroutine makes reuse
	// all but certain, and even a pool miss just degenerates to the
	// reference behavior).
	for i := 0; i < 4; i++ {
		got, err := RunE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got.Metrics, *fresh.Metrics) {
			t.Fatalf("run %d: metrics diverge with arena reuse:\npooled: %+v\nfresh:  %+v",
				i, *got.Metrics, *fresh.Metrics)
		}
		if got.Radio != fresh.Radio {
			t.Fatalf("run %d: radio stats diverge: %+v vs %+v", i, got.Radio, fresh.Radio)
		}
		if got.Energy != fresh.Energy || got.FirstDeath != fresh.FirstDeath ||
			got.SensorsAlive != fresh.SensorsAlive || got.Elapsed != fresh.Elapsed {
			t.Fatalf("run %d: summary diverges: %+v vs %+v", i, got, fresh)
		}
	}
}

// StopAtFirstDeath stops the kernel mid-delivery-batch; harvesting a
// stopped world (pending events still queued) must hand storage back
// without tripping the stale-handle protection on the next run.
func TestArenaHarvestOfStoppedWorld(t *testing.T) {
	cfg := Config{Seed: 3, Protocol: SPR, NumSensors: 20, Side: 100,
		SensorRange: 40, NumGateways: 1, SensorBattery: 0.02,
		StopAtFirstDeath: true, RunFor: 600 * sim.Second}
	fresh := Build(cfg).RunTraffic()
	if fresh.FirstDeath < 0 {
		t.Fatal("config never kills a sensor; test needs a mid-run stop")
	}
	for i := 0; i < 3; i++ {
		got, err := RunE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got.Metrics, *fresh.Metrics) || got.FirstDeath != fresh.FirstDeath {
			t.Fatalf("run %d: stopped-world harvest changed results: death %v vs %v",
				i, got.FirstDeath, fresh.FirstDeath)
		}
	}
}

// A sequential caller's allocation count must not depend on GOMAXPROCS:
// with the arena on a plain free list, every run gets back the storage the
// run before it returned, whichever P the goroutine is on and whenever the
// GC runs. The sequence mirrors the allocation guard's end-to-end rows
// (SPR, and SPR with link ARQ on a clean and a lossy channel), interleaved.
// Every run at GOMAXPROCS 1, 2 and 4 must allocate what the config's
// fewest-allocation run at GOMAXPROCS 1 did, give or take a few dozen
// objects. The slack is for the runtime, which now and then allocates for
// itself inside a run (a GC wait descriptor, a thread or timer record); an
// arena lost to a per-P or GC-cleared cache costs the run hundreds of
// allocations.
func TestRunAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the guard sequence at three GOMAXPROCS settings")
	}
	base := Config{Seed: 1, Protocol: SPR, NumSensors: 80, Side: 180,
		SensorRange: 40, NumGateways: 3, ReportInterval: 10 * sim.Second,
		RunFor: 60 * sim.Second, SensorBattery: 1e6}
	params := core.DefaultParams()
	params.LinkRetries = 4
	arq := base
	arq.Params = &params
	lossy := arq
	lossy.LossRate = 0.2
	seq := []Config{base, arq, lossy}
	run := func(cfg Config) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := RunE(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	const repeats, slack = 5, 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []uint64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		runtime.GC() // start this setting's GC workers outside the measurement
		for warm := 0; warm < 2; warm++ {
			for _, cfg := range seq {
				run(cfg)
			}
		}
		counts := make([][]uint64, len(seq))
		for rep := 0; rep < repeats; rep++ {
			for i, cfg := range seq {
				counts[i] = append(counts[i], run(cfg))
			}
		}
		for i, c := range counts {
			if len(want) <= i {
				want = append(want, slices.Min(c))
			}
			if slices.Min(c)+slack < want[i] || slices.Max(c) > want[i]+slack {
				t.Fatalf("GOMAXPROCS=%d config %d: allocations per run %v, want %d±%d as at GOMAXPROCS=1",
					procs, i, c, want[i], slack)
			}
		}
	}
}
