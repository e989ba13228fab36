package radio

import (
	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Multi-lane operation: when the owning world is split into spatial regions
// (internal/node EnableSharding), the medium's single lane becomes one lane
// per region, each on its region's kernel. Transmit, deliver and the
// receiver checks are the same code for one lane and for many; what only a
// multi-lane medium does is stage receptions that cross a region border in
// per-(source,destination) outboxes and adopt them at the next barrier
// (DrainOutboxes), where the receiver checks run against the destination
// lane's state. The spatial grid and the stations map are shared read-only
// during a parallel window — attach, detach, and move are confined to
// barriers and global phases. The conservative window length (one
// propagation delay plus the minimum one-microsecond airtime) guarantees a
// cross-border delivery is always adopted before the destination lane's
// clock reaches it.

// remoteDelivery is a reception crossing a region border, staged until the
// barrier. The packet is the transmitted one, shared with the sender's lane:
// it is read-only everywhere, and the barrier orders the sender's writes
// before any read on the destination lane.
type remoteDelivery struct {
	to         *Station
	pkt        *packet.Packet
	start, end sim.Time
}

// EnableSharding splits the medium into one lane per kernel: kernels[i]
// drives lane i, and laneOf assigns every subsequently attached station to
// its owning lane (existing stations are reassigned in place). Lane 0 keeps
// the medium's original lane, and the pooled deliveries and batches it
// holds (a run arena adopted before the split) are shared out among the
// lanes. A lane recycles only into its own free lists, so a lane that
// started empty would hand its fresh allocations to the arena at harvest,
// and the arena would grow with every sharded run. The MAC-level channel
// models that require a global view of the medium — CSMA carrier sense and
// the collision model — are incompatible with regional execution, as is
// tracing; both panic here rather than silently racing.
func (m *Medium) EnableSharding(kernels []*sim.Kernel, laneOf func(packet.NodeID, geom.Point) int32) {
	if m.laneOf != nil {
		panic("radio: sharding enabled twice")
	}
	if m.cfg.CSMA || m.cfg.Collisions {
		panic("radio: CSMA and collision models require a global channel view; disable them for sharded runs")
	}
	if m.cfg.Obs.Active() {
		panic("radio: tracing is incompatible with sharded runs")
	}
	m.laneOf = laneOf
	n := len(kernels)
	lanes := append(make([]*laneCtx, 0, n), m.lanes[0])
	lanes[0].k, lanes[0].outbox = kernels[0], make([][]remoteDelivery, n)
	for _, k := range kernels[1:] {
		lanes = append(lanes, m.newLane(k, n))
	}
	del, batches := lanes[0].freeDel, lanes[0].freeBatch
	for i, lc := range lanes {
		lc.freeDel = share(del, i, n)
		lc.freeBatch = share(batches, i, n)
	}
	m.lanes = lanes
	for _, st := range m.stations {
		st.lane = laneOf(st.id, st.pos)
	}
}

// share returns part i of n near-equal parts of free, lane 0 taking the
// remainder. Each part is capped at its own length, so a lane's appends
// reallocate instead of overwriting the next lane's part.
func share[T any](free []T, i, n int) []T {
	lo, hi := len(free)-len(free)*(n-i)/n, len(free)-len(free)*(n-i-1)/n
	return free[lo:hi:hi]
}

// Deafen stops a station from receiving — handler cleared, not removed from
// the index. A region worker killing its own device calls this immediately
// (the fields are owned by that lane) and stages the structural Detach for
// the barrier, where grid and map mutation is safe.
func (m *Medium) Deafen(id packet.NodeID) {
	if st := m.stations[id]; st != nil {
		st.handler = nil
	}
}

// DrainOutboxes adopts every staged cross-border delivery into its
// destination lane. Called at barriers and after global phases, with all
// workers parked. Adoption order is deterministic: destination lanes in
// index order, source lanes in index order, entries in production order —
// and each lane's production order is itself deterministic. The receiver
// checks are the home-lane ones (accept), evaluated against the
// destination lane.
func (m *Medium) DrainOutboxes() {
	for dst, dl := range m.lanes {
		for _, src := range m.lanes {
			box := src.outbox[dst]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				if r := &box[i]; m.accept(dl, r.to, r.pkt) {
					d := dl.getDelivery()
					d.to, d.pkt, d.start, d.end = r.to, r.pkt, r.start, r.end
					dl.k.ScheduleArgAt(d.end, dl.deliverFn, d)
				}
				box[i] = remoteDelivery{}
			}
			src.outbox[dst] = box[:0]
		}
	}
}
