package radio

import (
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Steady-state cost of one transmit+deliver cycle to a single receiver:
// nothing is allocated. The receiver gets the transmitted packet itself,
// events come from the kernel pool, deliveries from the medium pool, the
// receiver set from the sender's cached list, and no closure or Timer is
// created.
func TestTransmitDeliverAllocsPinned(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000})
	a := m.Attach(1, geom.Point{}, 50, nil)
	got := 0
	m.Attach(2, geom.Point{X: 10}, 50, func(*packet.Packet) { got++ })
	pkt := testPkt(1)
	// Warm every pool and backing array.
	for i := 0; i < 64; i++ {
		m.Transmit(a, pkt)
	}
	k.RunAll()
	avg := testing.AllocsPerRun(200, func() {
		m.Transmit(a, pkt)
		k.RunAll()
	})
	if avg != 0 {
		t.Fatalf("transmit+deliver allocates %.2f per cycle, want 0", avg)
	}
	if got == 0 {
		t.Fatal("nothing delivered")
	}
}

// The collision model's pending lists must not break delivery pooling: under
// sustained overlapping traffic the steady state still allocates nothing.
func TestTransmitAllocsPinnedWithCollisions(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000, Collisions: true})
	a := m.Attach(1, geom.Point{}, 50, nil)
	m.Attach(2, geom.Point{X: 10}, 50, func(*packet.Packet) {})
	pkt := testPkt(1)
	for i := 0; i < 64; i++ {
		m.Transmit(a, pkt)
	}
	k.RunAll()
	avg := testing.AllocsPerRun(200, func() {
		m.Transmit(a, pkt) // overlapping pair: both corrupt, both recycle
		m.Transmit(a, pkt)
		k.RunAll()
	})
	if avg != 0 {
		t.Fatalf("collision-model cycle allocates %.2f, want 0", avg)
	}
}

// The multi-lane path is pinned too: a steady transmit → DrainOutboxes →
// run cycle reaching a home-lane receiver (batched on the sender's lane) and
// a cross-lane receiver (staged in the outbox, adopted on its own lane)
// allocates nothing. Outboxes keep their capacity across barriers and each
// lane recycles the deliveries it completes.
func TestShardedTransmitDrainAllocsPinned(t *testing.T) {
	kernels := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
	m := New(kernels[0], Config{BitRate: 250_000})
	m.EnableSharding(kernels, splitAt20)
	a := m.Attach(1, geom.Point{}, 50, nil)
	got := map[packet.NodeID]int{}
	m.Attach(2, geom.Point{X: 10}, 50, func(*packet.Packet) { got[2]++ })
	m.Attach(3, geom.Point{X: 30}, 50, func(*packet.Packet) { got[3]++ })
	pkt := testPkt(1)
	cycle := func() {
		m.Transmit(a, pkt)
		kernels[0].RunAll()
		m.DrainOutboxes()
		kernels[1].RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("sharded transmit+drain+deliver allocates %.2f per cycle, want 0", avg)
	}
	if got[2] == 0 || got[3] == 0 {
		t.Fatalf("deliveries home-lane=%d cross-lane=%d, want both > 0", got[2], got[3])
	}
}

// Recycled deliveries must not alias: a delivery handed to one receiver
// stays intact after its struct is reused for later traffic.
func TestDeliveryRecyclingDoesNotAlias(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000})
	a := m.Attach(1, geom.Point{}, 50, nil)
	var seqs []uint32
	m.Attach(2, geom.Point{X: 10}, 50, func(p *packet.Packet) { seqs = append(seqs, p.Seq) })
	for i := 0; i < 20; i++ {
		pkt := testPkt(1)
		pkt.Seq = uint32(i)
		m.Transmit(a, pkt)
		k.RunAll()
	}
	if len(seqs) != 20 {
		t.Fatalf("delivered %d packets, want 20", len(seqs))
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("delivery %d carried seq %d (recycled delivery aliased)", i, s)
		}
	}
}

// BenchmarkTransmitDeliver measures the full one-hop cycle the end-to-end
// benchmarks are dominated by.
func BenchmarkTransmitDeliver(b *testing.B) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000})
	a := m.Attach(1, geom.Point{}, 50, nil)
	for i := 0; i < 8; i++ {
		m.Attach(packet.NodeID(2+i), geom.Point{X: float64(i + 1)}, 50, func(*packet.Packet) {})
	}
	pkt := testPkt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(a, pkt)
		k.RunAll()
	}
}
