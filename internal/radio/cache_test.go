package radio

import (
	"math/rand"
	"slices"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// freshReceivers is the uncached lookup the receiver lists replace: one
// grid query and an ID sort.
func freshReceivers(m *Medium, s *Station) []*Station {
	if s.rangeM <= 0 {
		return nil
	}
	out := m.grid.AppendWithin(nil, s.pos, s.rangeM, s)
	sortStations(out)
	return out
}

// checkReceivers fails unless every attached station's cached list (warmed
// or rebuilt here, on its own lane) equals a fresh lookup.
func checkReceivers(t *testing.T, m *Medium, step int, op string) {
	t.Helper()
	for _, s := range m.stations {
		got := m.receivers(m.lanes[s.lane], s)
		if want := freshReceivers(m, s); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): station %v cached %v, fresh lookup %v",
				step, op, s.id, stationIDs(got), stationIDs(want))
		}
	}
}

func stationIDs(ss []*Station) []packet.NodeID {
	ids := make([]packet.NodeID, len(ss))
	for i, s := range ss {
		ids[i] = s.id
	}
	return ids
}

// Property: after any sequence of Attach, Detach, Move, SetRange and
// boosted one-frame transmits, every cached receiver list equals a fresh
// grid query plus sort, on a one-lane medium and on a two-lane one. Every
// list is warm before each operation, so a missed invalidation shows.
func TestReceiverCacheMatchesFreshLookup(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		k := sim.NewKernel(1)
		m := New(k, Config{BitRate: 250_000, CellSize: 25})
		if lanes == 2 {
			m.EnableSharding([]*sim.Kernel{k, sim.NewKernel(2)}, splitAt20)
		}
		rng := rand.New(rand.NewSource(int64(lanes)))
		pos := func() geom.Point { return geom.Point{X: rng.Float64() * 120, Y: rng.Float64() * 120} }
		var ids []packet.NodeID
		next := packet.NodeID(1)
		attach := func() {
			m.Attach(next, pos(), 10+rng.Float64()*40, func(*packet.Packet) {})
			ids = append(ids, next)
			next++
		}
		for i := 0; i < 30; i++ {
			attach()
		}
		checkReceivers(t, m, 0, "attach")
		for step := 1; step <= 400; step++ {
			var op string
			switch r := rng.Intn(6); {
			case r == 0 || len(ids) < 5:
				op = "attach"
				attach()
			case r == 1:
				op = "detach"
				i := rng.Intn(len(ids))
				m.Detach(ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			case r == 2:
				op = "move"
				m.Station(ids[rng.Intn(len(ids))]).Move(pos())
			case r == 3:
				op = "set-range"
				m.Station(ids[rng.Intn(len(ids))]).SetRange(rng.Float64() * 60)
			case r == 4:
				// A boosted transmit leaves the warm list as it was.
				op = "boosted-transmit"
				s := m.Station(ids[rng.Intn(len(ids))])
				before := slices.Clone(s.nbrs)
				m.TransmitRange(s, testPkt(s.id), s.Range()*3)
				if !slices.Equal(s.nbrs, before) || s.nbrsEpoch != m.epoch {
					t.Fatalf("step %d: boosted transmit changed station %v's list %v to %v",
						step, s.id, stationIDs(before), stationIDs(s.nbrs))
				}
			default:
				op = "deafen"
				m.Deafen(ids[rng.Intn(len(ids))])
			}
			checkReceivers(t, m, step, op)
		}
	}
}

// A boosted transmit reaches the farther station; the next transmit at the
// normal range does not.
func TestRangeBoostReachesFartherOnce(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	got := map[packet.NodeID]int{}
	a := m.Attach(1, geom.Point{}, 30, nil)
	for _, p := range []struct {
		id packet.NodeID
		x  float64
	}{{2, 20}, {3, 60}} {
		id := p.id
		m.Attach(id, geom.Point{X: p.x}, 30, func(*packet.Packet) { got[id]++ })
	}
	m.Transmit(a, testPkt(1)) // warm the normal-range list
	m.TransmitRange(a, testPkt(1), 80)
	m.Transmit(a, testPkt(1))
	k.RunAll()
	if got[2] != 3 || got[3] != 1 {
		t.Fatalf("deliveries near=%d far=%d, want 3 and 1", got[2], got[3])
	}
}

// A station detached at a barrier — deafened on its lane first, as a region
// worker killing its own device does — is absent from every list rebuilt
// afterwards and receives nothing more.
func TestDetachedStationLeavesEveryList(t *testing.T) {
	kernels := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
	m := New(kernels[0], SensorRadio())
	m.EnableSharding(kernels, splitAt20)
	got := map[packet.NodeID]int{}
	var stations []*Station
	for i, x := range []float64{0, 10, 18, 25, 35} {
		id := packet.NodeID(i + 1)
		stations = append(stations, m.Attach(id, geom.Point{X: x}, 40, func(*packet.Packet) { got[id]++ }))
	}
	round := func() {
		for _, s := range stations {
			m.Transmit(s, testPkt(s.id))
		}
		for _, k := range kernels {
			k.RunAll()
		}
		m.DrainOutboxes()
		for _, k := range kernels {
			k.RunAll()
		}
	}
	round() // every list warm
	const victim = 3
	m.Deafen(victim)
	round()
	if got[victim] != 4 {
		t.Fatalf("deafened station received %d, want only the 4 of the first round", got[victim])
	}
	m.Detach(victim)
	for _, s := range stations {
		if s.id == victim {
			continue
		}
		for _, r := range m.receivers(m.lanes[s.lane], s) {
			if r.id == victim {
				t.Fatalf("station %v still lists detached station %v", s.id, victim)
			}
		}
	}
	round()
	if got[victim] != 4 {
		t.Fatalf("detached station received %d, want 4", got[victim])
	}
}

// On a warm list a transmit does not query the grid: a station taken out
// of the grid behind the medium's back (no epoch bump) still receives, and
// only a topology change makes the sender look again.
func TestWarmTransmitSkipsGrid(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	n := 0
	a := m.Attach(1, geom.Point{}, 50, nil)
	b := m.Attach(2, geom.Point{X: 10}, 50, func(*packet.Packet) { n++ })
	m.Transmit(a, testPkt(1))
	m.grid.Remove(b, b.pos)
	m.Transmit(a, testPkt(1))
	k.RunAll()
	if n != 2 {
		t.Fatalf("warm transmit delivered %d of 2: it re-queried the grid", n)
	}
	m.Attach(3, geom.Point{X: 500}, 50, nil) // bumps the epoch
	m.Transmit(a, testPkt(1))
	k.RunAll()
	if n != 2 {
		t.Fatalf("rebuilt list still reaches the station missing from the grid")
	}
}

// Rebuilding a list after a topology change reuses its storage when the
// new list fits, so a mobile receiver that stays in range costs no
// allocation per move-and-transmit cycle.
func TestRebuildAfterMoveAllocsPinned(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000})
	a := m.Attach(1, geom.Point{}, 50, nil)
	b := m.Attach(2, geom.Point{X: 10}, 50, func(*packet.Packet) {})
	pkt := testPkt(1)
	x := 10.0
	cycle := func() {
		x = 40 - x // alternate 10 m and 30 m
		b.Move(geom.Point{X: x})
		m.Transmit(a, pkt)
		k.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("move+transmit+deliver allocates %.2f per cycle, want 0", avg)
	}
}

// A boosted transmit neither reads nor rewrites the sender's cached list:
// the list keeps its normal-range receivers and its capacity, so a station
// that boosts every frame holds no list of its far-reaching set.
func TestBoostedTransmitLeavesCachedList(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	a := m.Attach(1, geom.Point{}, 30, nil)
	for i := 0; i < 20; i++ {
		m.Attach(packet.NodeID(i+2), geom.Point{X: float64(10 + 10*i)}, 30, func(*packet.Packet) {})
	}
	m.Transmit(a, testPkt(1))
	list, capBefore := slices.Clone(a.nbrs), cap(a.nbrs)
	m.TransmitRange(a, testPkt(1), 250)
	if cap(a.nbrs) != capBefore || !slices.Equal(a.nbrs, list) || a.Range() != 30 {
		t.Fatalf("boosted transmit left list %v (cap %d, range %g), want %v (cap %d, range 30)",
			stationIDs(a.nbrs), cap(a.nbrs), a.Range(), stationIDs(list), capBefore)
	}
}

// A boosted frame deferred by carrier sense goes out at its boosted range
// when the backoff ends.
func TestDeferredBoostedFrameKeepsRange(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000, CSMA: true})
	a := m.Attach(1, geom.Point{}, 30, func(*packet.Packet) {})
	b := m.Attach(2, geom.Point{X: 10}, 30, func(*packet.Packet) {})
	far := 0
	m.Attach(3, geom.Point{X: 70}, 30, func(*packet.Packet) { far++ })
	m.Transmit(a, testPkt(1))
	m.TransmitRange(b, testPkt(2), 80) // b hears a: deferred
	k.RunAll()
	if st := m.Stats(); st.Backoffs == 0 {
		t.Fatal("the boosted frame was not deferred")
	}
	if far != 1 {
		t.Fatalf("far station received %d frames, want the deferred boosted one", far)
	}
}
