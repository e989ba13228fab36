package sim

import "fmt"

// Conservative-window primitives for the multi-lane window loop
// (internal/node EnableSharding). A world drives one Kernel per lane; a
// one-lane world runs its kernel inline through Run or RunAll, while a
// multi-lane world's window loop interrogates each lane's earliest pending
// event (NextAt), lets workers execute events strictly below a shared
// horizon (RunBefore), and aligns lane clocks at barriers (AdvanceTo). All
// three run entry points share one event loop (Kernel.loop). Each Kernel is
// still single-goroutine: the window loop guarantees that a lane kernel is
// only touched by its worker during a parallel window and only by the
// coordinating goroutine between windows.

// NextAt returns the firing time of the earliest pending event and whether
// one exists.
func (k *Kernel) NextAt() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// RunBefore executes every pending event with a timestamp strictly earlier
// than horizon, in the usual (at, seq) order, and returns how many ran. The
// clock is left at the last executed event — never advanced to the horizon —
// so a cross-window event scheduled later at exactly the horizon is still in
// the future. Stop breaks the loop just as it does for Run.
func (k *Kernel) RunBefore(horizon Time) uint64 { return k.loop(horizon - 1) }

// AdvanceTo moves the clock forward to t without executing anything.
// Advancing past a pending event panics — that would reorder causality —
// and moving backwards is a no-op.
func (k *Kernel) AdvanceTo(t Time) {
	if t <= k.now {
		return
	}
	if len(k.queue) > 0 && k.queue[0].at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) past pending event at %v", t, k.queue[0].at))
	}
	k.now = t
}

// ClearStop resets the stop flag without running anything, so a coordinating
// loop that drives the kernel through Step/RunBefore can begin from a clean
// state exactly as Run does.
func (k *Kernel) ClearStop() { k.stopped = false }
