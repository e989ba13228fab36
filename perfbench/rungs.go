package main

import (
	"math/rand"
	"runtime"
	"time"

	"wmsn/internal/metrics"
	"wmsn/internal/packet"
	"wmsn/internal/radio"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/wsncrypto"
)

// The isolated rungs time one layer's public functions outside a run, at a
// shape taken from the workload, so a change to that layer shows without
// the noise of everything above it.

// rungCost times fn, which does work units of work, and returns nanoseconds,
// heap objects and heap bytes per unit.
func rungCost(units float64, fn func()) (ns, objs, bytes float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d) / units, float64(m1.Mallocs-m0.Mallocs) / units, float64(m1.TotalAlloc-m0.TotalAlloc) / units
}

// simRung drives the kernel with one self-rescheduling ScheduleArgAt chain
// per node of the field (the pending-queue depth of a run) and an After
// timer every eighth event, for about as many events as one op fires.
func simRung(nodes int, events uint64) (ns, allocs float64) {
	if events < 100_000 {
		events = 100_000
	}
	k := sim.NewKernel(1)
	rng := rand.New(rand.NewSource(1))
	var fired uint64
	var step func(any)
	step = func(arg any) {
		fired++
		if fired%8 == 0 {
			k.After(sim.Duration(1+rng.Intn(2000)), func() {})
		}
		k.ScheduleArgAt(k.Now()+sim.Duration(1+rng.Intn(10_000)), step, arg)
	}
	for i := 0; i < nodes; i++ {
		k.ScheduleArgAt(sim.Duration(rng.Intn(10_000)), step, nil)
	}
	ns, allocs, _ = rungCost(float64(events), func() {
		for fired < events && k.Step() {
		}
	})
	return ns, allocs
}

// radioRung attaches the workload's own sensor positions to a fresh medium
// and has every station send one broadcast RREQ and one unicast DATA frame
// of the workload's sizes, round after round, counting receptions.
func radioRung(cfg scenario.Config) (ns, allocs, bytes float64, err error) {
	net, err := scenario.BuildE(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	c := net.Cfg // with defaults
	k := sim.NewKernel(1)
	m := radio.New(k, radio.Config{BitRate: 250_000, PropDelay: 50 * sim.Microsecond, Metrics: metrics.New()})
	var rx uint64
	handler := func(*packet.Packet) { rx++ }
	stations := make([]*radio.Station, len(net.SensorIDs))
	for i, id := range net.SensorIDs {
		stations[i] = m.Attach(id, net.World.Device(id).Pos(), c.SensorRange, handler)
	}
	path := []packet.NodeID{1, 2, 3, 4}
	rreq := &packet.Packet{Kind: packet.KindRReq, To: packet.Broadcast, Target: packet.Broadcast, TTL: 16, Path: path}
	data := &packet.Packet{Kind: packet.KindData, TTL: 16, Path: path, Payload: make([]byte, c.PayloadSize)}
	round := func() {
		for _, st := range stations {
			p := *rreq
			p.From, p.Origin = st.ID(), st.ID()
			m.Transmit(st, &p)
			if nb := m.Neighbors(st.ID()); len(nb) > 0 {
				d := *data
				d.From, d.Origin, d.To = st.ID(), st.ID(), nb[0]
				m.Transmit(st, &d)
			}
			k.RunAll()
		}
	}
	round() // warm the medium's pools
	rx = 0
	const rounds = 20
	var perRound uint64
	ns, allocs, bytes = rungCost(1, func() {
		for r := 0; r < rounds; r++ {
			round()
		}
		perRound = rx
	})
	if perRound == 0 {
		return 0, 0, 0, nil
	}
	f := float64(perRound)
	return ns / f, allocs / f, bytes / f, nil
}

// cryptoRung times wsncrypto.Sum and Verify over the byte strings a SecMLR
// DATA and RREQ frame authenticate, alternating the two sizes.
func cryptoRung() (sumNS, verifyNS, allocsPerSum float64) {
	key := wsncrypto.DeriveKey([]byte("perfbench"), 1, 1_000_000)
	path := []packet.NodeID{1, 2, 3, 4, 5}
	msgs := [][]byte{
		(&packet.Packet{Kind: packet.KindData, From: 1, To: 2, Origin: 1, Target: 1_000_000, Seq: 7, TTL: 16, Path: path, Payload: make([]byte, 16)}).Marshal(),
		(&packet.Packet{Kind: packet.KindRReq, From: 1, To: packet.Broadcast, Origin: 1, Target: packet.Broadcast, Seq: 7, TTL: 16, Path: path}).Marshal(),
	}
	const n = 100_000
	tags := [2][]byte{wsncrypto.Sum(key, 1, msgs[0]), wsncrypto.Sum(key, 1, msgs[1])}
	sumNS, allocsPerSum, _ = rungCost(n, func() {
		for i := 0; i < n; i++ {
			_ = wsncrypto.Sum(key, uint64(i), msgs[i&1])
		}
	})
	ok := true
	verifyNS, _, _ = rungCost(n, func() {
		for i := 0; i < n; i++ {
			ok = wsncrypto.Verify(key, 1, msgs[i&1], tags[i&1]) && ok
		}
	})
	if !ok {
		return 0, 0, 0
	}
	return sumNS, verifyNS, allocsPerSum
}

// metricsRung times a packet's life in metrics.Memory: RecordGenerated
// then RecordDelivered, on a fresh sink per field-sized batch as in a run.
func metricsRung(nodes int) (ns, allocs float64) {
	const n = 200_000
	batch := nodes * 20
	gw := scenario.GatewayID(0)
	ns, allocs, _ = rungCost(n, func() {
		var m *metrics.Memory
		for i := 0; i < n; i++ {
			if i%batch == 0 {
				m = metrics.New()
			}
			origin := packet.NodeID(1 + i%nodes)
			seq := uint32(i / nodes)
			at := sim.Time(i) * sim.Millisecond
			m.RecordGenerated(origin, seq, at)
			m.RecordDelivered(origin, seq, gw, 1+i%6, at+40*sim.Millisecond)
		}
	})
	return ns, allocs
}

// runRungs fills every rung metric, shaped by the workload's first config
// and the events per op its traced ops fired.
func runRungs(cfg scenario.Config, eventsPerOp float64, m map[string]float64) error {
	full := scenario.Defaults(cfg)
	nodes := full.NumSensors + full.NumGateways
	m["sim.rung_ns_per_event"], m["sim.rung_allocs_per_event"] = simRung(nodes, uint64(eventsPerOp))
	ns, allocs, bytes, err := radioRung(cfg)
	if err != nil {
		return err
	}
	m["radio.rung_ns_per_rx"], m["radio.rung_allocs_per_rx"], m["radio.rung_bytes_per_rx"] = ns, allocs, bytes
	m["wsncrypto.rung_sum_ns"], m["wsncrypto.rung_verify_ns"], m["wsncrypto.rung_allocs_per_sum"] = cryptoRung()
	m["metrics.rung_record_ns"], m["metrics.rung_allocs_per_record"] = metricsRung(full.NumSensors)
	return nil
}
