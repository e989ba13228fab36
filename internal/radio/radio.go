// Package radio simulates the shared wireless medium: unit-disk propagation,
// transmission airtime, per-link loss, and an optional collision model in
// which overlapping receptions at a node corrupt each other.
//
// Two media are typically instantiated per WMSN: a short-range low-rate one
// for the sensor layer (802.15.4-like, 250 kbit/s) and a long-range
// high-rate one for the mesh backbone (802.11-like, 11 Mbit/s), matching the
// paper's §3.2 ("sensor nodes only support 802.15.4; WMRs only support
// 802.11; WMGs support both"). Gateways join both media.
package radio

import (
	"fmt"
	"math"

	"wmsn/internal/geom"
	"wmsn/internal/metrics"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Config describes a medium's PHY/MAC characteristics.
type Config struct {
	// BitRate is the transmission rate in bits per second. Airtime of a
	// packet is SizeBits/BitRate.
	BitRate float64
	// PropDelay is the fixed propagation plus processing delay added to
	// every delivery.
	PropDelay sim.Duration
	// LossRate is the independent per-link packet loss probability in
	// [0,1).
	LossRate float64
	// Collisions enables the overlap-corruption model: when two receptions
	// overlap in time at a receiver, both are corrupted and dropped.
	Collisions bool
	// CellSize is the spatial-hash cell edge in meters; 0 selects a
	// reasonable default.
	CellSize float64
	// CSMA enables carrier-sense multiple access: a station that senses
	// an in-flight transmission it can hear defers for a random backoff
	// before retrying, up to MaxBackoffs attempts. Energy is charged at
	// submission (the sensing cost itself is not modeled).
	CSMA bool
	// MaxBackoffs bounds CSMA retry attempts; 0 selects 5.
	MaxBackoffs int
	// BackoffWindow is the maximum random defer per attempt; 0 selects
	// 4 ms.
	BackoffWindow sim.Duration
	// Metrics, when non-nil, receives every medium event (transmissions,
	// deliveries, losses, collisions, CSMA activity) as Radio* counters in
	// addition to the medium's own Stats. Leave nil to keep the hot path
	// branch-free of telemetry.
	Metrics metrics.Sink
	// Obs, when active, receives a FrameLost event for every unicast DATA
	// copy the medium drops at its addressee (loss model or collision) —
	// the ground truth behind the link layer's retry decisions. Nil keeps
	// the delivery loop free of tracing beyond one branch.
	Obs *obs.Bus
}

// SensorRadio is an 802.15.4-flavored configuration for the sensor layer.
func SensorRadio() Config {
	return Config{BitRate: 250_000, PropDelay: 50 * sim.Microsecond}
}

// MeshRadio is an 802.11-flavored configuration for the mesh backbone.
func MeshRadio() Config {
	return Config{BitRate: 11_000_000, PropDelay: 20 * sim.Microsecond}
}

// Stats aggregates medium activity for the overhead experiments.
type Stats struct {
	Transmissions uint64 // packets put on the air
	Deliveries    uint64 // packet copies handed to receivers
	Lost          uint64 // copies dropped by the loss model
	Collided      uint64 // copies corrupted by overlapping receptions
	BytesOnAir    uint64 // Σ packet size over transmissions
	Backoffs      uint64 // CSMA deferrals
	CSMADropped   uint64 // packets abandoned after MaxBackoffs attempts
}

// Station is a node's attachment to a medium.
type Station struct {
	id packet.NodeID
	// lane indexes the medium lane that owns the station: always 0 on a
	// one-lane medium, assigned by the laneOf rule once EnableSharding has
	// split the medium (sharded.go). Immutable during parallel windows.
	// Kept beside id, which the receiver sort reads, so transmit's lane
	// test touches no further cache line.
	lane      int32
	pos       geom.Point
	rangeM    float64
	handler   func(*packet.Packet)
	listening bool
	rxLoss    float64 // extra per-station reception loss probability
	medium    *Medium
	// promiscuous marks an eavesdropper's attachment, as set by the node
	// layer. The medium delivers to every station alike and never reads it.
	promiscuous bool
	// pending tracks receptions in flight, for the collision model;
	// any two receptions whose airtimes overlap corrupt each other.
	pending []*delivery
	// nbrs caches the station's receivers: every other attached station
	// within rangeM of pos, in ID order. It is current while nbrsEpoch
	// equals medium.epoch, and only the station's own lane rebuilds it
	// (receivers).
	nbrs      []*Station
	nbrsEpoch uint64
}

// ID returns the station's node ID.
func (s *Station) ID() packet.NodeID { return s.id }

// Pos returns the station's current position.
func (s *Station) Pos() geom.Point { return s.pos }

// Range returns the station's transmission range in meters.
func (s *Station) Range() float64 { return s.rangeM }

// SetRange adjusts transmission power (topology control, §4.4). Only this
// station's receivers depend on its range, so only its cached receiver list
// is dropped. A single frame at another range goes through
// Medium.TransmitRange instead, which leaves the list alone.
func (s *Station) SetRange(r float64) {
	if r < 0 {
		r = 0
	}
	if r != s.rangeM {
		s.rangeM = r
		s.nbrsEpoch = 0
	}
}

// Listening reports whether the radio is awake.
func (s *Station) Listening() bool { return s.listening }

// SetListening wakes or sleeps the receiver (sleep scheduling, §4.4).
// A sleeping station receives nothing but may still transmit.
func (s *Station) SetListening(on bool) { s.listening = on }

// RxLoss returns the station's extra reception loss probability.
func (s *Station) RxLoss() float64 { return s.rxLoss }

// SetRxLoss sets an additional independent loss probability applied to every
// reception at this station, on top of the medium-wide LossRate. The fault
// injector uses it for per-link and region-wide degradation ramps. p is
// clamped to [0, 1); a station with RxLoss 0 draws no extra randomness, so
// unfaulted runs keep their RNG streams unchanged.
func (s *Station) SetRxLoss(p float64) {
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p >= 1 {
		p = 0.999999
	}
	s.rxLoss = p
}

// Move relocates the station (gateway mobility between MLR rounds).
func (s *Station) Move(p geom.Point) {
	s.medium.reindex(s, p)
}

// Promiscuous reports whether the station is marked as an eavesdropper.
func (s *Station) Promiscuous() bool { return s.promiscuous }

// SetPromiscuous marks the station as an eavesdropper, one that consumes
// unicasts addressed to other nodes instead of dropping them after the
// energy charge. The medium delivers to it exactly as to any other
// station: the transmitted packet itself, shared with every receiver and
// read-only to the eavesdropper's handler too.
func (s *Station) SetPromiscuous(on bool) { s.promiscuous = on }

type delivery struct {
	to        *Station
	pkt       *packet.Packet
	start     sim.Time
	end       sim.Time
	corrupted bool
}

// deliveryBatch carries every reception completing at one instant from one
// transmission. Scheduling the batch as a single kernel event replaces the
// one-event-per-receiver pattern: a broadcast heard by d neighbors costs
// one heap operation instead of d. Entries stay in the ID order of the
// sender's receiver list, so handler invocation order is identical to the
// per-event schedule, whose same-timestamp events fired in the consecutive
// sequence order they were created in.
type deliveryBatch struct {
	entries []*delivery
}

// activeTx records a transmission occupying the channel, for carrier sense.
type activeTx struct {
	pos    geom.Point
	rangeM float64
	end    sim.Time
}

// Medium is a shared broadcast channel among registered stations. Its
// mutable hot-path state lives in lanes, one laneCtx per kernel driving the
// medium: New makes a single lane on the given kernel, and EnableSharding
// (sharded.go) splits the medium into one lane per region. The stations map
// and the spatial grid are shared by every lane.
type Medium struct {
	cfg      Config
	stations map[packet.NodeID]*Station
	grid     *geom.GridIndex[*Station] // spatial index for receiver lookup
	active   []activeTx                // in-flight transmissions (CSMA only)
	// epoch numbers the medium's topology. Attach, Detach and Move bump it,
	// which makes every cached receiver list stale; it starts at 1, so the
	// zero nbrsEpoch of a new or re-ranged station is never current.
	epoch uint64

	lanes  []*laneCtx                            // at least one; lane i runs on lanes[i].k
	laneOf func(packet.NodeID, geom.Point) int32 // station-to-lane rule; nil until EnableSharding
}

// laneCtx is one lane's share of a medium. Transmissions from, and
// receptions at, the lane's stations run on its kernel, draw from its RNG
// and count into its Stats. Delivery structs and batches are pooled on its
// free lists and scheduled through the kernel's zero-alloc arg path via
// deliverFn/deliverBatchFn (bound once per lane, so no per-delivery closure
// exists); rxScratch is the buffer of every receiver lookup (inRange). A lane
// owns all of this exclusively, so concurrent region workers never share
// mutable radio state.
type laneCtx struct {
	k              *sim.Kernel
	stats          Stats
	freeDel        []*delivery
	freeBatch      []*deliveryBatch
	rxScratch      []*Station
	deliverFn      func(any)
	deliverBatchFn func(any)
	// outbox[dst] collects the receptions this lane produced for stations
	// on lane dst during the current window; empty on a one-lane medium.
	outbox [][]remoteDelivery
}

// New creates a medium driven by kernel k.
func New(k *sim.Kernel, cfg Config) *Medium {
	if cfg.BitRate <= 0 {
		panic("radio: non-positive bit rate")
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		panic(fmt.Sprintf("radio: loss rate %v outside [0,1)", cfg.LossRate))
	}
	cell := cfg.CellSize
	if cell <= 0 {
		cell = 50
	}
	m := &Medium{
		cfg:      cfg,
		stations: make(map[packet.NodeID]*Station),
		grid:     geom.NewGridIndex[*Station](cell),
		epoch:    1,
	}
	m.lanes = []*laneCtx{m.newLane(k, 1)}
	return m
}

// newLane makes an empty lane on kernel k for a medium of n lanes.
func (m *Medium) newLane(k *sim.Kernel, n int) *laneCtx {
	lc := &laneCtx{k: k, outbox: make([][]remoteDelivery, n)}
	lc.deliverFn = func(arg any) { m.deliver(lc, arg.(*delivery)) }
	lc.deliverBatchFn = func(arg any) { m.deliverBatch(lc, arg.(*deliveryBatch)) }
	return lc
}

func (lc *laneCtx) getBatch() *deliveryBatch {
	if n := len(lc.freeBatch); n > 0 {
		b := lc.freeBatch[n-1]
		lc.freeBatch[n-1] = nil
		lc.freeBatch = lc.freeBatch[:n-1]
		return b
	}
	return &deliveryBatch{}
}

func (lc *laneCtx) getDelivery() *delivery {
	if n := len(lc.freeDel); n > 0 {
		d := lc.freeDel[n-1]
		lc.freeDel[n-1] = nil
		lc.freeDel = lc.freeDel[:n-1]
		return d
	}
	return &delivery{}
}

// putDelivery recycles a delivery once its own deliver event has run and it
// is out of every pending list. Deliveries dropped from a pending list by a
// sibling's compaction stay live until their own event fires.
func (lc *laneCtx) putDelivery(d *delivery) {
	d.to = nil
	d.pkt = nil
	d.corrupted = false
	lc.freeDel = append(lc.freeDel, d)
}

// Stats returns a snapshot of medium counters, summed over the lanes.
func (m *Medium) Stats() Stats {
	var s Stats
	for _, lc := range m.lanes {
		s.Transmissions += lc.stats.Transmissions
		s.Deliveries += lc.stats.Deliveries
		s.Lost += lc.stats.Lost
		s.Collided += lc.stats.Collided
		s.BytesOnAir += lc.stats.BytesOnAir
		s.Backoffs += lc.stats.Backoffs
		s.CSMADropped += lc.stats.CSMADropped
	}
	return s
}

// LossRate returns the medium-wide per-link loss probability.
func (m *Medium) LossRate() float64 { return m.cfg.LossRate }

// SetLossRate changes the medium-wide per-link loss probability mid-run
// (region-wide degradation ramps). Out-of-range values panic, matching New.
func (m *Medium) SetLossRate(p float64) {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("radio: loss rate %v outside [0,1)", p))
	}
	m.cfg.LossRate = p
}

// report mirrors a stats increment to the optional metrics sink.
func (m *Medium) report(c metrics.Counter, n uint64) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Add(c, n)
	}
}

// observeLoss traces a dropped copy of a unicast DATA frame at its
// addressee, stamped with the clock of st's lane lc. Broadcast copies and
// overheard unicasts are omitted: only the addressee's loss is a hop-level
// event the link layer will react to.
func (m *Medium) observeLoss(lc *laneCtx, st *Station, pkt *packet.Packet, reason string) {
	if !m.cfg.Obs.Active() || pkt.Kind != packet.KindData || pkt.To != st.id {
		return
	}
	m.cfg.Obs.Emit(obs.Event{
		At: lc.k.Now(), Kind: obs.FrameLost, Node: st.id, Peer: pkt.From,
		Origin: pkt.Origin, Seq: pkt.Seq, Detail: reason,
	})
}

// Airtime returns how long a packet of size bytes occupies the channel.
func (m *Medium) Airtime(sizeBytes int) sim.Duration {
	us := float64(sizeBytes*8) / m.cfg.BitRate * 1e6
	return sim.Duration(math.Ceil(us))
}

// Attach registers a station. handler is called once per successful
// delivery with the transmitted packet itself — the same pointer every
// other receiver of that transmission gets — so it must not write to the
// packet; a handler that relays takes a header copy with
// packet.Packet.Forward. Attaching an already-attached ID panics: duplicate
// radio identities are a configuration bug (the deliberate case, the Sybil
// attack, forges packet headers instead).
func (m *Medium) Attach(id packet.NodeID, pos geom.Point, rangeM float64, handler func(*packet.Packet)) *Station {
	if _, dup := m.stations[id]; dup {
		panic(fmt.Sprintf("radio: station %v attached twice", id))
	}
	s := &Station{id: id, pos: pos, rangeM: rangeM, handler: handler, listening: true, medium: m}
	if m.laneOf != nil {
		s.lane = m.laneOf(id, pos)
	}
	m.stations[id] = s
	m.grid.Insert(s, pos)
	m.epoch++
	return s
}

// Detach removes a station (node death or departure). Packets already in
// flight to it are silently dropped at delivery time.
func (m *Medium) Detach(id packet.NodeID) {
	s, ok := m.stations[id]
	if !ok {
		return
	}
	m.grid.Remove(s, s.pos)
	delete(m.stations, id)
	s.handler = nil
	m.epoch++
}

// Station returns the attachment for id, or nil.
func (m *Medium) Station(id packet.NodeID) *Station { return m.stations[id] }

func (m *Medium) reindex(s *Station, p geom.Point) {
	m.grid.Move(s, s.pos, p)
	s.pos = p
	m.epoch++
}

// receivers returns s's receiver list: the stations within s's range,
// excluding s itself, in ID order. The list is cached on s and rebuilt
// only when the medium's epoch or s's range has changed since, with one
// lookup (inRange) and a copy into the list's own storage (reused when it
// fits, else allocated anew).
// lc must be s's lane, the only one that writes s's list: the epoch moves
// only at barriers and in global phases, so lane workers merely read it.
func (m *Medium) receivers(lc *laneCtx, s *Station) []*Station {
	if s.nbrsEpoch == m.epoch {
		return s.nbrs
	}
	rx := m.inRange(lc, s, s.rangeM)
	if cap(s.nbrs) < len(rx) {
		s.nbrs = nil // append then sizes the new list to its allocation's size class
	}
	s.nbrs = append(s.nbrs[:0], rx...)
	clear(s.nbrs[len(rx):cap(s.nbrs)]) // a shrunk list pins no departed station
	s.nbrsEpoch = m.epoch
	return s.nbrs
}

// inRange looks up, uncached, the stations within rangeM of s, excluding s
// itself, in ID order: one grid query and a sort into lc's scratch buffer,
// which the result aliases until lc's next lookup.
func (m *Medium) inRange(lc *laneCtx, s *Station, rangeM float64) []*Station {
	rx := lc.rxScratch[:0]
	if rangeM > 0 {
		rx = m.grid.AppendWithin(rx, s.pos, rangeM, s)
		sortStations(rx)
	}
	lc.rxScratch = rx
	return rx
}

// Neighbors returns the IDs of stations within range of id, ID-sorted,
// copied out of id's cached receiver list. Serving it may rebuild that
// list, which only the station's own lane writes, so call it only on id's
// lane — as a device does when it asks for its own neighbors.
func (m *Medium) Neighbors(id packet.NodeID) []packet.NodeID {
	s := m.stations[id]
	if s == nil {
		return nil
	}
	in := m.receivers(m.lanes[s.lane], s)
	out := make([]packet.NodeID, len(in))
	for i, st := range in {
		out[i] = st.id
	}
	return out
}

func sortStations(ss []*Station) {
	// Insertion sort: neighbor lists are short and this avoids pulling in
	// sort for a hot path.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].id < ss[j-1].id; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Transmit broadcasts pkt from station from. Every listening station within
// range receives pkt itself after airtime + PropDelay, unless the loss model
// drops it or (with Collisions) an overlapping reception corrupts it. No
// copy is made: from the call on, pkt is shared by every receiver, and
// neither the sender nor any receiver may write to it. Unicast packets
// (pkt.To != Broadcast) reach every neighbor's radio too — wireless is
// broadcast — and the node layer charges the overhearing energy before
// dropping them at everyone but the addressee and eavesdroppers.
//
// With CSMA enabled, a busy channel defers the transmission by a random
// backoff (retried up to MaxBackoffs times before the packet is abandoned).
func (m *Medium) Transmit(from *Station, pkt *packet.Packet) {
	m.send(from, pkt, ownRange)
}

// TransmitRange broadcasts pkt like Transmit, but at rangeM (clamped at 0)
// instead of the station's own range, for this frame only — a temporarily
// boosted or reduced transmission power. The receivers come from an
// uncached lookup, and the station's cached receiver list, which holds its
// own range's receivers, is neither read nor replaced: a protocol that
// boosts every data frame (LEACH, PEGASIS, Direct) pays one grid query and
// sort per frame and keeps no list of the boosted set. A frame deferred by
// carrier sense keeps its range.
func (m *Medium) TransmitRange(from *Station, pkt *packet.Packet, rangeM float64) {
	m.send(from, pkt, max(rangeM, 0))
}

// ownRange as a frame's range selects the sender's own range and its
// cached receiver list.
const ownRange = -1

// send puts pkt on the air from from at rangeM (or ownRange), through
// carrier sense when it is enabled.
func (m *Medium) send(from *Station, pkt *packet.Packet, rangeM float64) {
	if from == nil {
		return
	}
	if m.cfg.CSMA {
		m.transmitCSMA(from, pkt, rangeM, 0)
		return
	}
	m.transmit(from, pkt, rangeM)
}

// carrierBusy reports whether st can hear an in-flight transmission at now.
func (m *Medium) carrierBusy(st *Station, now sim.Time) bool {
	kept := m.active[:0]
	busy := false
	for _, tx := range m.active {
		if tx.end <= now {
			continue
		}
		kept = append(kept, tx)
		if st.pos.Dist(tx.pos) <= tx.rangeM {
			busy = true
		}
	}
	m.active = kept
	return busy
}

// transmitCSMA is the carrier-sense path. Like the collision model it needs
// a global view of the channel, so it runs only on a one-lane medium
// (EnableSharding refuses both), where the sender's lane is lane 0.
func (m *Medium) transmitCSMA(from *Station, pkt *packet.Packet, rangeM float64, attempt int) {
	if from.handler == nil && m.stations[from.id] == nil {
		return // detached while backing off
	}
	maxB := m.cfg.MaxBackoffs
	if maxB <= 0 {
		maxB = 5
	}
	window := m.cfg.BackoffWindow
	if window <= 0 {
		window = 4 * sim.Millisecond
	}
	lc := m.lanes[from.lane]
	if m.carrierBusy(from, lc.k.Now()) {
		if attempt >= maxB {
			lc.stats.CSMADropped++
			m.report(metrics.RadioDropped, 1)
			return
		}
		lc.stats.Backoffs++
		m.report(metrics.RadioBackoffs, 1)
		delay := 1 + sim.Duration(lc.k.Rand().Int63n(int64(window)))
		lc.k.After(delay, func() { m.transmitCSMA(from, pkt, rangeM, attempt+1) })
		return
	}
	m.transmit(from, pkt, rangeM)
}

// transmit puts pkt on the air from the sender's lane. It runs on that
// lane's worker during a parallel window, or on the coordinating goroutine
// (every worker parked) otherwise; either way it mutates only the sender
// lane's context and its outboxes, which no one else reads until the
// barrier. Receivers on the sender's lane are checked here and their
// receptions — which all complete at the same instant — are scheduled as a
// single batch event, so a broadcast heard by d neighbors costs one heap
// operation instead of d. Receivers on another lane are staged in the
// outbox unchecked: their checks belong to the destination lane and run
// when DrainOutboxes adopts them. A one-lane medium never stages anything.
// rangeM is the frame's range, or ownRange for the sender's cached list.
func (m *Medium) transmit(from *Station, pkt *packet.Packet, rangeM float64) {
	lc := m.lanes[from.lane]
	size := uint64(pkt.Size())
	lc.stats.Transmissions++
	lc.stats.BytesOnAir += size
	m.report(metrics.RadioTransmissions, 1)
	m.report(metrics.RadioBytesOnAir, size)
	airtime := m.Airtime(pkt.Size())
	start := lc.k.Now()
	end := start + airtime + m.cfg.PropDelay
	var rx []*Station
	if rangeM == ownRange {
		rangeM, rx = from.rangeM, m.receivers(lc, from)
	} else {
		rx = m.inRange(lc, from, rangeM)
	}
	if m.cfg.CSMA {
		m.active = append(m.active, activeTx{pos: from.pos, rangeM: rangeM, end: start + airtime})
	}
	var batch *deliveryBatch
	for _, st := range rx {
		if st.lane != from.lane {
			lc.outbox[st.lane] = append(lc.outbox[st.lane],
				remoteDelivery{to: st, pkt: pkt, start: start, end: end})
			continue
		}
		if !m.accept(lc, st, pkt) {
			continue
		}
		d := lc.getDelivery()
		d.to, d.pkt, d.start, d.end = st, pkt, start, end
		if m.cfg.Collisions {
			// Any reception overlapping an in-flight one corrupts both.
			for _, prev := range st.pending {
				if prev.end > start && !prev.corrupted {
					prev.corrupted = true
					lc.stats.Collided++
					m.report(metrics.RadioCollided, 1)
				}
				if prev.end > start {
					d.corrupted = true
				}
			}
			if d.corrupted {
				lc.stats.Collided++
				m.report(metrics.RadioCollided, 1)
			}
			st.pending = append(st.pending, d)
		}
		if batch == nil {
			batch = lc.getBatch()
		}
		batch.entries = append(batch.entries, d)
	}
	if batch != nil {
		lc.k.ScheduleArgAt(end, lc.deliverBatchFn, batch)
	}
}

// accept runs the receiver-side checks for a reception at st on st's lane
// lc and reports whether it goes ahead: the station must be listening and
// have a handler, then survive the medium-wide LossRate draw and its own
// RxLoss draw, both from lc's RNG (so each lane's random stream is consumed
// only by its own receptions). transmit applies it to home-lane receivers
// and DrainOutboxes to adopted cross-lane ones. Both loss probabilities lie
// in [0,1), so a zero sum means no draw is due; that test keeps accept
// small enough to inline on the loss-free hot path.
func (m *Medium) accept(lc *laneCtx, st *Station, pkt *packet.Packet) bool {
	return st.listening && st.handler != nil &&
		(m.cfg.LossRate+st.rxLoss == 0 || m.survivesLoss(lc, st, pkt))
}

// survivesLoss makes accept's loss draws, counting and tracing a loss.
func (m *Medium) survivesLoss(lc *laneCtx, st *Station, pkt *packet.Packet) bool {
	if (m.cfg.LossRate > 0 && lc.k.Rand().Float64() < m.cfg.LossRate) ||
		(st.rxLoss > 0 && lc.k.Rand().Float64() < st.rxLoss) {
		lc.stats.Lost++
		m.report(metrics.RadioLost, 1)
		m.observeLoss(lc, st, pkt, "loss")
		return false
	}
	return true
}

// deliverBatch completes every reception of one transmission on lane lc.
// All entries share the same arrival instant, and their ID-sorted order
// matches the firing order of the per-event schedule they replace
// (consecutive sequence numbers at an equal timestamp).
func (m *Medium) deliverBatch(lc *laneCtx, b *deliveryBatch) {
	for i, d := range b.entries {
		if lc.k.Stopped() {
			// Kernel.Stop landed inside this batch (typically a reception's
			// energy charge killed the node whose death stops the run). The
			// per-event schedule would have left the remaining receptions
			// as queued events, so re-queue them individually: a run that
			// never resumes drops them exactly as before, and a resumed
			// run still completes them.
			for j := i; j < len(b.entries); j++ {
				lc.k.ScheduleArgAt(b.entries[j].end, lc.deliverFn, b.entries[j])
				b.entries[j] = nil
			}
			break
		}
		b.entries[i] = nil
		m.deliver(lc, d)
	}
	b.entries = b.entries[:0]
	lc.freeBatch = append(lc.freeBatch, b)
}

// deliver completes one reception on the receiver's lane lc.
func (m *Medium) deliver(lc *laneCtx, d *delivery) {
	st := d.to
	if m.cfg.Collisions {
		// Drop completed receptions from the pending set. This always drops
		// d itself (d.end == now), so d is unreferenced after this call and
		// safe to recycle below.
		now := lc.k.Now()
		kept := st.pending[:0]
		for _, p := range st.pending {
			if p.end > now {
				kept = append(kept, p)
			}
		}
		st.pending = kept
	}
	corrupted, pkt := d.corrupted, d.pkt
	lc.putDelivery(d)
	if corrupted {
		m.observeLoss(lc, st, pkt, "collision")
		return
	}
	if st.handler == nil || !st.listening {
		return
	}
	lc.stats.Deliveries++
	m.report(metrics.RadioDeliveries, 1)
	st.handler(pkt)
}

// Pool carries a medium's recycled hot-path storage — delivery structs,
// delivery batches and a receiver scratch buffer — between runs (the run
// arena; see sim.EventPool for the kernel half). A zero Pool is valid and
// empty. Pools are not safe for concurrent use: each run adopts the pool's
// storage exclusively and harvests it back when done.
type Pool struct {
	del     []*delivery
	batches []*deliveryBatch
	scratch []*Station
}

// AdoptPool seeds lane 0's free lists and scratch buffer from p, emptying
// p. Call once, on a freshly constructed medium; EnableSharding keeps lane
// 0's storage.
func (m *Medium) AdoptPool(p *Pool) {
	lc := m.lanes[0]
	if p.del != nil {
		lc.freeDel = p.del
		p.del = nil
	}
	if p.batches != nil {
		lc.freeBatch = p.batches
		p.batches = nil
	}
	if p.scratch != nil {
		lc.rxScratch = p.scratch
		p.scratch = nil
	}
}

// HarvestPool moves every lane's pooled storage into p and detaches it from
// m. Of the lanes' scratch buffers p keeps the largest, since only lane 0
// adopts one. The medium remains usable afterwards (it simply allocates
// fresh storage), but the harvested structures must not be reached through
// stale kernel events — the caller harvests the kernel in the same breath,
// which invalidates every scheduled delivery. All station and packet
// references are cleared so the pool never pins a dead world in memory.
func (m *Medium) HarvestPool(p *Pool) {
	// Free-listed deliveries were already cleared by putDelivery; batches
	// nil their entries in deliverBatch. Deliveries still in flight are
	// abandoned to the GC along with their kernel events.
	for _, lc := range m.lanes {
		p.del = append(p.del, lc.freeDel...)
		lc.freeDel = nil
		p.batches = append(p.batches, lc.freeBatch...)
		lc.freeBatch = nil
		if cap(lc.rxScratch) > cap(p.scratch) {
			s := lc.rxScratch[:cap(lc.rxScratch)]
			for i := range s {
				s[i] = nil
			}
			p.scratch = s[:0]
		}
		lc.rxScratch = nil
	}
}
