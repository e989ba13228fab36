package radio

import (
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// splitAt20 is a two-lane rule for sharded tests: lane 0 west of x = 20,
// lane 1 east of it.
func splitAt20(_ packet.NodeID, p geom.Point) int32 {
	if p.X < 20 {
		return 0
	}
	return 1
}

// A sharded run returns every lane's recycled storage to the run arena:
// lane 0 keeps the pool it adopted before the split, and HarvestPool
// collects the deliveries of home-lane and of adopted cross-lane receptions
// alike.
func TestHarvestPoolCollectsEveryLane(t *testing.T) {
	var p Pool
	k := sim.NewKernel(1)
	seq := New(k, SensorRadio())
	seqFrom := seq.Attach(1, geom.Point{}, 50, nil)
	seq.Attach(2, geom.Point{X: 5}, 50, func(*packet.Packet) {})
	seq.Transmit(seqFrom, testPkt(1))
	k.RunAll()
	seq.HarvestPool(&p)
	if len(p.del) == 0 {
		t.Fatal("sequential harvest collected no deliveries")
	}
	adopted := p.del[0]

	kernels := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
	m := New(kernels[0], SensorRadio())
	m.AdoptPool(&p)
	m.EnableSharding(kernels, splitAt20)
	if len(m.lanes[0].freeDel) == 0 || m.lanes[0].freeDel[0] != adopted {
		t.Fatal("lane 0 lost the pool adopted before EnableSharding")
	}
	s1 := m.Attach(1, geom.Point{}, 50, nil)
	m.Attach(2, geom.Point{X: 5}, 50, func(*packet.Packet) {})
	m.Attach(3, geom.Point{X: 30}, 50, func(*packet.Packet) {})
	for i := 0; i < 3; i++ {
		m.Transmit(s1, testPkt(1))
		kernels[0].RunAll()
		m.DrainOutboxes()
		kernels[1].RunAll()
	}
	if got := m.Stats().Deliveries; got != 6 {
		t.Fatalf("delivered %d, want 6 (3 home-lane + 3 cross-lane)", got)
	}
	lane := map[*delivery]int{}
	for i, lc := range m.lanes {
		for _, d := range lc.freeDel {
			lane[d] = i
		}
	}
	var h Pool
	m.HarvestPool(&h)
	seen := map[int]bool{}
	for _, d := range h.del {
		if i, ok := lane[d]; ok {
			seen[i] = true
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("harvested %d deliveries from lanes %v, want deliveries from lanes 0 and 1", len(h.del), seen)
	}
	if len(h.batches) == 0 {
		t.Fatal("harvest collected no delivery batches")
	}
}

// A run arena cycled through sharded runs stays bounded: EnableSharding
// lends lane 0's adopted storage to every lane, so a harvest returns what
// the lanes used rather than the loan plus each lane's fresh allocations.
func TestShardedArenaStaysBounded(t *testing.T) {
	var p Pool
	sizes := make([]int, 0, 8)
	for cycle := 0; cycle < 8; cycle++ {
		kernels := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
		m := New(kernels[0], SensorRadio())
		m.AdoptPool(&p)
		m.EnableSharding(kernels, splitAt20)
		var senders []*Station
		for i, x := range []float64{0, 5, 10, 25, 30, 35} {
			senders = append(senders, m.Attach(packet.NodeID(i+1), geom.Point{X: x}, 50, func(*packet.Packet) {}))
		}
		for _, s := range senders {
			m.Transmit(s, testPkt(s.id))
		}
		kernels[0].RunAll()
		kernels[1].RunAll()
		m.DrainOutboxes()
		kernels[0].RunAll()
		kernels[1].RunAll()
		m.HarvestPool(&p)
		sizes = append(sizes, len(p.del)+len(p.batches))
	}
	for _, n := range sizes[2:] {
		if n != sizes[1] {
			t.Fatalf("pooled deliveries+batches per cycle %v: the arena grows with every sharded run", sizes)
		}
	}
}
