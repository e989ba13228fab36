package main

import (
	"fmt"
	"time"

	"wmsn/internal/core"
	"wmsn/internal/node"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

// Handler-time slots: one per packet kind, plus the two non-packet upcalls a
// stack can receive (link-ARQ give-ups and round-controller moves).
const (
	slotLinkFailure = int(packet.KindLinkAck) + 1 + iota
	slotSetPlace
	numSlots
)

// handlerKinds are the packet kinds reported per kind.
var handlerKinds = []struct {
	name string
	kind packet.Kind
}{
	{"rreq", packet.KindRReq},
	{"rres", packet.KindRRes},
	{"data", packet.KindData},
	{"notify", packet.KindNotify},
	{"ack", packet.KindAck},
	{"hello", packet.KindHello},
}

// stackTimes accumulates one stack's handler calls. Each wrapped stack owns
// one, so stacks on different sharded lanes never write the same counters;
// the per-op totals are summed after the run.
type stackTimes struct {
	ns    [numSlots]int64
	calls [numSlots]uint64
}

// timedStack times every upcall into the wrapped protocol stack. The span is
// inclusive: a handler's sends run inside it, so radio transmit and
// per-receiver clone cost land in the handler time, while the deliveries
// they schedule run later from the kernel and do not.
type timedStack struct {
	inner node.Stack
	t     *stackTimes
}

func (s *timedStack) Start(dev *node.Device) { s.inner.Start(dev) }

func (s *timedStack) HandleMessage(pkt *packet.Packet) {
	k := int(pkt.Kind) // read first: the handler may recycle pkt
	if k >= numSlots {
		k = 0
	}
	t0 := time.Now()
	s.inner.HandleMessage(pkt)
	s.t.ns[k] += int64(time.Since(t0))
	s.t.calls[k]++
}

func (s *timedStack) linkFailure(pkt *packet.Packet) {
	t0 := time.Now()
	s.inner.(node.LinkFailureHandler).HandleLinkFailure(pkt)
	s.t.ns[slotLinkFailure] += int64(time.Since(t0))
	s.t.calls[slotLinkFailure]++
}

func (s *timedStack) setPlace(place, round int, moved bool) {
	t0 := time.Now()
	s.inner.(core.PlacedGateway).SetPlace(place, round, moved)
	s.t.ns[slotSetPlace] += int64(time.Since(t0))
	s.t.calls[slotSetPlace]++
}

// The wrapper must expose exactly the optional interfaces the inner stack
// implements: the link layer and the round controller find them by type
// assertion, and a wrapper that hid them would silently stop ARQ failover
// and gateway moves from reaching the protocol.
type timedLinkFailure struct{ *timedStack }

func (s timedLinkFailure) HandleLinkFailure(pkt *packet.Packet) { s.linkFailure(pkt) }

type timedPlaced struct{ *timedStack }

func (s timedPlaced) SetPlace(place, round int, moved bool) { s.setPlace(place, round, moved) }

type timedBoth struct{ *timedStack }

func (s timedBoth) HandleLinkFailure(pkt *packet.Packet)  { s.linkFailure(pkt) }
func (s timedBoth) SetPlace(place, round int, moved bool) { s.setPlace(place, round, moved) }

func wrapTimed(st node.Stack, t *stackTimes) node.Stack {
	base := &timedStack{inner: st, t: t}
	_, lf := st.(node.LinkFailureHandler)
	_, pg := st.(core.PlacedGateway)
	switch {
	case lf && pg:
		return timedBoth{base}
	case lf:
		return timedLinkFailure{base}
	case pg:
		return timedPlaced{base}
	}
	return base
}

// kindCounter is the obs sink of a traced run: it only counts events per
// kind.
type kindCounter struct{ n map[obs.Kind]uint64 }

func (c *kindCounter) Observe(ev obs.Event) { c.n[ev.Kind]++ }

// opTrace is everything the traced pass learns about one op.
type opTrace struct {
	start, built, end time.Time
	stacks            []*stackTimes
	progress          sim.Progress
	events            *kindCounter // nil on sharded runs
}

// instrument returns cfg with the traced pass's hooks installed: sensor
// stacks wrapped through StackWrapper, gateway stacks through SwapStack in
// Mutate (which also stamps the end of the build), a Progress probe for the
// kernel's event count, and an obs bus with a counting sink when the engine
// is sequential (Validate rejects Obs with sharding).
func instrument(cfg scenario.Config, tr *opTrace) scenario.Config {
	cfg.StackWrapper = func(_ packet.NodeID, st node.Stack) node.Stack {
		t := new(stackTimes)
		tr.stacks = append(tr.stacks, t)
		return wrapTimed(st, t)
	}
	cfg.Mutate = func(n *scenario.Net) {
		for _, id := range n.GatewayIDs {
			if d := n.World.Device(id); d != nil && d.Stack() != nil {
				t := new(stackTimes)
				tr.stacks = append(tr.stacks, t)
				d.SwapStack(wrapTimed(d.Stack(), t))
			}
		}
		tr.built = time.Now()
	}
	cfg.Progress = &tr.progress
	if cfg.Shards <= 1 {
		tr.events = &kindCounter{n: make(map[obs.Kind]uint64)}
		cfg.Obs = obs.NewBus(tr.events)
	}
	return cfg
}

// handlerTotals sums an op's per-stack handler accumulators.
func (tr *opTrace) handlerTotals() (t stackTimes) {
	for _, s := range tr.stacks {
		for i := range s.ns {
			t.ns[i] += s.ns[i]
			t.calls[i] += s.calls[i]
		}
	}
	return t
}

// span is one coarse interval of the traced pass: an op, its build and
// traffic phases, or an HTTP phase of a wmsnd job. Times are nanoseconds
// since the benchmark started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// handlerAgg is the per-(span, packet kind) aggregate of handler calls; the
// calls themselves are too many to keep one by one.
type handlerAgg struct {
	Span  int    `json:"span"`
	Kind  string `json:"kind"`
	Calls uint64 `json:"calls"`
	NS    int64  `json:"ns"`
}

// spanLog keeps the traced pass's spans in memory until the benchmark ends.
type spanLog struct {
	epoch    time.Time
	Spans    []span       `json:"spans"`
	Handlers []handlerAgg `json:"handlers"`
}

func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	id := len(l.Spans) + 1
	l.Spans = append(l.Spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	return id
}

// addOp records an op span with its build and traffic children and the
// handler aggregates of its traffic phase.
func (l *spanLog) addOp(name string, tr *opTrace) {
	op := l.add(0, name, tr.start, tr.end)
	l.add(op, "build", tr.start, tr.built)
	traffic := l.add(op, "traffic", tr.built, tr.end)
	tot := tr.handlerTotals()
	for k := range tot.calls {
		if tot.calls[k] == 0 {
			continue
		}
		l.Handlers = append(l.Handlers, handlerAgg{Span: traffic, Kind: slotName(k), Calls: tot.calls[k], NS: tot.ns[k]})
	}
}

func slotName(k int) string {
	switch k {
	case slotLinkFailure:
		return "link_failure"
	case slotSetPlace:
		return "set_place"
	}
	return packet.Kind(k).String()
}

// addJob records a wmsnd job span, from its due time to its done line, with
// its HTTP phases as children: waiting for a connection slot, submission up
// to the stream header, the wait for the first result, and the rest of the
// stream.
func (l *spanLog) addJob(loopStart time.Time, o *jobOutcome) {
	at := func(d time.Duration) time.Time { return loopStart.Add(d) }
	job := l.add(0, fmt.Sprintf("job pool=%d", o.job), at(o.due), at(o.done))
	l.add(job, "slot", at(o.due), at(o.sent))
	l.add(job, "submit", at(o.sent), at(o.header))
	l.add(job, "first_result", at(o.header), at(o.result1))
	l.add(job, "stream", at(o.result1), at(o.done))
}
