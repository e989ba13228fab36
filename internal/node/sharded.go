package node

import (
	"sort"
	"sync"
	"sync/atomic"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/radio"
	"wmsn/internal/sim"
)

// Lanes: every world runs its devices on lanes, one sim.Kernel each. A new
// world has a single lane whose kernel is the world kernel, so a sequential
// run is the one-lane case: Run drives that kernel inline, with no workers or
// barriers, and every event sequence number and RNG draw is the world
// kernel's own. EnableSharding splits the field into vertical strips, one
// lane per strip, simulated by concurrent workers under conservative
// time-window synchronization. The lookahead bound is physical: a frame
// transmitted at time t is delivered no earlier than t + airtime + PropDelay,
// and airtime is at least one microsecond, so any event one lane can cause
// in another lies at least window = min(PropDelay) + 1µs in the future.
// Workers therefore run their lanes independently inside [t, t+window);
// cross-strip deliveries are staged in per-lane outboxes and adopted at the
// window barrier, always before the destination lane's clock reaches them.
//
// In a sharded world the world's own kernel (Kernel()) becomes the global
// lane: everything scheduled on it directly — traffic-arming randomness,
// gateway advert sweeps, mesh HELLO timers, fault injection, Rounds
// controllers — executes between windows on the coordinating goroutine with
// every worker parked, preserving the sequential semantics of code that
// touches devices across the whole field. Per-device work (receive
// handlers, stack timers armed through Device.After, link-ARQ timers) runs
// on the device's lane.
//
// Determinism: a sharded run is a deterministic function of (seed, shards).
// It is not stream-identical to the sequential run — each lane consumes its
// own RNG and event sequence — but for loss-free runs whose protocols draw no
// in-run randomness (the default SPR/MLR/SecMLR parameterization), the
// delivered set, latencies, hop counts and energy totals match Shards=1
// exactly; scenario.TestShardedSummariesMatch pins this.

// lane is one strip's executor: a kernel plus the worker plumbing (unused in
// a one-lane world).
type lane struct {
	k      *sim.Kernel
	work   chan sim.Time // horizons for the worker; closed at run end
	fired  uint64        // events executed (worker-owned between barriers)
	active bool          // participates in the current window
}

type stagedDeath struct {
	d   *Device
	rec DeathRecord
}

type stagedDetach struct {
	m  *radio.Medium
	id packet.NodeID
}

// shardState is the window-loop bookkeeping of a World. Its zero value
// describes a one-lane world: stripLane maps every point to lane 0 and
// inPar never turns true.
type shardState struct {
	shards int
	region geom.Rect
	window sim.Duration
	inPar  atomic.Bool // inside a parallel window (workers running)
	wg     sync.WaitGroup

	mu     sync.Mutex // guards the staged slices during parallel windows
	deaths []stagedDeath
	detach []stagedDetach
}

func (sh *shardState) stripLane(p geom.Point) int32 {
	wdt := sh.region.Width()
	if wdt <= 0 {
		return 0
	}
	i := int32(float64(sh.shards) * (p.X - sh.region.X0) / wdt)
	if i < 0 {
		i = 0
	}
	if max := int32(sh.shards) - 1; i > max {
		i = max
	}
	return i
}

// EnableSharding splits the world into shards vertical strips over region,
// each driven by its own kernel seeded deterministically from the world
// seed; they replace the single lane on the world kernel. Must be called on
// a world with no devices yet (lane assignment happens at Add time from the
// device position) and no active tracing (the obs bus is not
// concurrency-safe). The MAC models requiring a global channel view (CSMA,
// collisions) panic inside the media. shards <= 1 leaves the world as it is.
func (w *World) EnableSharding(shards int, region geom.Rect) {
	if shards <= 1 || len(w.lanes) > 1 {
		return
	}
	if len(w.order) > 0 {
		panic("node: EnableSharding must precede device additions")
	}
	if w.obs.Active() {
		panic("node: tracing is incompatible with sharded execution")
	}
	window := w.cfg.SensorRadio.PropDelay
	if w.cfg.MeshRadio.PropDelay < window {
		window = w.cfg.MeshRadio.PropDelay
	}
	window += sim.Duration(1) // minimum airtime quantum
	sh := &w.shard
	sh.shards, sh.region, sh.window = shards, region, window
	kernels := make([]*sim.Kernel, shards)
	w.lanes = make([]*lane, shards)
	for i := range kernels {
		k := sim.NewKernel(w.cfg.Seed ^ int64(i+1)*0x5851F42D4C957F2D)
		kernels[i] = k
		w.lanes[i] = &lane{k: k}
	}
	laneOf := func(id packet.NodeID, p geom.Point) int32 {
		// A station re-attaching on Recover must return to its device's
		// original lane even if the device moved across strips meanwhile:
		// the device's timers and handlers already live there.
		if d := w.devices[id]; d != nil {
			return w.soa.lane[d.h]
		}
		return sh.stripLane(p)
	}
	w.sensorMedium.EnableSharding(kernels, laneOf)
	w.meshMedium.EnableSharding(kernels, laneOf)
}

// inParallel reports whether region workers are currently running — the
// signal for kill and detach to stage their world-level effects.
func (w *World) inParallel() bool { return w.shard.inPar.Load() }

// detachStation removes a dying device's attachment. During a parallel
// window the structural mutation (grid, stations map) is staged for the
// barrier; the handler is cleared immediately, which is lane-local and
// stops further receptions on this lane at once.
func (w *World) detachStation(m *radio.Medium, id packet.NodeID) {
	if w.inParallel() {
		m.Deafen(id)
		sh := &w.shard
		sh.mu.Lock()
		sh.detach = append(sh.detach, stagedDetach{m: m, id: id})
		sh.mu.Unlock()
		return
	}
	m.Detach(id)
}

// stageDeath queues the world-level effects of a death for the barrier.
func (w *World) stageDeath(d *Device, rec DeathRecord) {
	sh := &w.shard
	sh.mu.Lock()
	sh.deaths = append(sh.deaths, stagedDeath{d: d, rec: rec})
	sh.mu.Unlock()
}

// drainBarrier applies everything staged during the last window: adopts
// cross-border deliveries into their destination lanes and replays staged
// detaches and deaths on the coordinating goroutine. Deaths are ordered by
// (time, node ID), making the death log a deterministic function of (seed,
// shards) even though workers staged them concurrently.
func (w *World) drainBarrier() {
	w.sensorMedium.DrainOutboxes()
	w.meshMedium.DrainOutboxes()
	sh := &w.shard
	if len(sh.detach) > 0 {
		for i, sd := range sh.detach {
			sd.m.Detach(sd.id)
			sh.detach[i] = stagedDetach{}
		}
		sh.detach = sh.detach[:0]
	}
	if len(sh.deaths) > 0 {
		sort.SliceStable(sh.deaths, func(i, j int) bool {
			a, b := sh.deaths[i].rec, sh.deaths[j].rec
			if a.At != b.At {
				return a.At < b.At
			}
			return a.ID < b.ID
		})
		for i := range sh.deaths {
			w.finishKill(sh.deaths[i].d, sh.deaths[i].rec)
			sh.deaths[i] = stagedDeath{}
		}
		sh.deaths = sh.deaths[:0]
	}
}

// laneWorker drains work from the channel captured at spawn time — not from
// ln.work, which the coordinating goroutine reassigns across Run calls: a
// worker scheduled late (after its run already finished) must still see its
// own closed channel and exit, not the next run's.
func (w *World) laneWorker(ln *lane, work <-chan sim.Time) {
	for horizon := range work {
		ln.fired += ln.k.RunBefore(horizon)
		w.shard.wg.Done()
	}
}

// runWindow executes one parallel window: every lane with an event before
// the horizon runs concurrently up to (but excluding) it. A window with a
// single busy lane runs inline on the coordinating goroutine — no fan-out,
// and kills take the direct sequential path.
func (w *World) runWindow(horizon sim.Time) uint64 {
	busy := 0
	var solo *lane
	for _, ln := range w.lanes {
		t, ok := ln.k.NextAt()
		ln.active = ok && t < horizon
		if ln.active {
			busy++
			solo = ln
		}
	}
	if busy == 0 {
		return 0
	}
	if busy == 1 {
		return solo.k.RunBefore(horizon)
	}
	sh := &w.shard
	sh.inPar.Store(true)
	for _, ln := range w.lanes {
		if ln.active {
			sh.wg.Add(1)
			ln.work <- horizon
		}
	}
	sh.wg.Wait()
	sh.inPar.Store(false)
	var total uint64
	for _, ln := range w.lanes {
		if ln.active {
			total += ln.fired
			ln.fired = 0
		}
	}
	return total
}

func (w *World) advanceAll(t sim.Time) {
	w.kernel.AdvanceTo(t)
	for _, ln := range w.lanes {
		ln.k.AdvanceTo(t)
	}
}

// runSharded is the conservative window loop behind World.Run and
// RunUntilIdle in a multi-lane world. Global-lane events run between
// windows in timestamp order relative to every lane (ties resolve
// global-first); lane events run inside windows whose length adapts to the
// earliest pending work, so idle stretches are skipped in one step instead
// of millions of empty barriers.
func (w *World) runSharded(until sim.Time) uint64 {
	g := w.kernel
	sh := &w.shard
	g.ClearStop()
	for _, ln := range w.lanes {
		ln.k.ClearStop()
		ln.work = make(chan sim.Time, 1)
		go w.laneWorker(ln, ln.work)
	}
	defer func() {
		for _, ln := range w.lanes {
			close(ln.work)
			ln.work = nil
		}
	}()
	var total uint64
	for !g.Stopped() {
		// Interrupted lanes break out of their window mid-batch with the
		// global stop flag untouched; check here so the window loop itself
		// terminates at the next barrier.
		if g.InterruptRequested() {
			break
		}
		w.publishShardedProgress()
		gt, gok := g.NextAt()
		var lt sim.Time
		lok := false
		for _, ln := range w.lanes {
			if t, ok := ln.k.NextAt(); ok && (!lok || t < lt) {
				lt, lok = t, true
			}
		}
		if !gok && !lok {
			break // fully drained
		}
		if gok && (!lok || gt <= lt) {
			if gt > until {
				w.advanceAll(until)
				break
			}
			// Global phase: catch every lane up to gt, then run all global
			// events at exactly gt (including same-time cascades).
			for _, ln := range w.lanes {
				ln.k.AdvanceTo(gt)
			}
			total += g.RunBefore(gt + 1)
			w.drainBarrier()
			continue
		}
		if lt > until {
			w.advanceAll(until)
			break
		}
		horizon := lt + sh.window
		if gok && gt < horizon {
			horizon = gt
		}
		if horizon > until+1 {
			horizon = until + 1 // events at exactly until still run (Run semantics)
		}
		total += w.runWindow(horizon)
		w.drainBarrier()
	}
	w.publishShardedProgress()
	return total
}

// publishShardedProgress publishes the coordinator's view of a sharded run:
// the furthest lane clock and the event total across the global lane and
// every region lane. Only called at barriers, when workers are parked, so
// the plain kernel reads are race-free.
func (w *World) publishShardedProgress() {
	if w.progress == nil {
		return
	}
	now := w.kernel.Now()
	events := w.kernel.Fired()
	for _, ln := range w.lanes {
		if t := ln.k.Now(); t > now {
			now = t
		}
		events += ln.k.Fired()
	}
	w.progress.Publish(now, events)
}
