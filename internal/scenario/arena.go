package scenario

import (
	"sync"

	"wmsn/internal/radio"
	"wmsn/internal/sim"
)

// runArena bundles the recycled per-run storage — pooled kernel events and
// the two radio media's delivery/batch/scratch buffers. Sweeps (RunMany,
// the E-experiments) build and tear down thousands of worlds whose steady
// state is nearly identical, so recycling this storage removes the bulk of
// per-run allocation without touching simulation behavior: pools carry only
// empty capacity, never live state.
//
// An arena is owned by exactly one run at a time. RunE threads it through
// node.Config, and World.ReleasePools hands the storage back after the
// result is summarized. It is deliberately NOT part of the public Config
// (Result.Cfg copies Config into every result, which must stay inert data).
type runArena struct {
	events sim.EventPool
	sensor radio.Pool
	mesh   radio.Pool
}

// arenas recycles runArenas across runs and goroutines.
var arenas arenaStack

// arenaStack is a free list of idle run arenas: a LIFO stack under a mutex.
// Unlike a sync.Pool it has no per-P caches and is never cleared by the
// GC, so a sequential caller gets back the arena its previous run
// returned, whichever P its goroutine runs on and whenever the GC runs —
// its allocation counts are reproducible at any GOMAXPROCS. The stack is
// not capped: it holds as many arenas as runs were ever in flight at once,
// which the callers bound (RunMany's workers; the daemon's schedulers
// times its per-job workers), so each concurrent run finds a warm arena.
// Those idle arenas, holding only empty capacity, stay pinned for the
// process's life.
type arenaStack struct {
	mu   sync.Mutex
	free []*runArena
}

// get pops the most recently returned arena, or makes a new one.
func (s *arenaStack) get() *runArena {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return new(runArena)
	}
	ar := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return ar
}

// put returns an arena whose run has harvested its storage into it.
func (s *arenaStack) put(ar *runArena) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = append(s.free, ar)
}
