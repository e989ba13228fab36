package chaos

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"wmsn/internal/core"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

// freezeCheck enforces the shared read-only packet contract across a whole
// trial. The radio hands one transmitted *Packet to every receiver, so a
// write by the sender after Transmit, or by any receiver, would silently
// corrupt what its siblings see. The check hashes a packet's encoding the
// first time a wrapped stack sees the pointer, re-hashes it on every later
// sighting (before and after each handler) and once more when the trial
// ends, and reports the first mismatch. Region workers of a sharded trial
// share one check, hence the mutex; a racing write shows up under -race too.
type freezeCheck struct {
	mu     sync.Mutex
	hashes map[*packet.Packet]uint64
	err    error
}

func packetHash(p *packet.Packet) uint64 {
	h := fnv.New64a()
	h.Write(p.Marshal())
	return h.Sum64()
}

func (f *freezeCheck) sight(p *packet.Packet, at packet.NodeID, when string) {
	h := packetHash(p)
	f.mu.Lock()
	defer f.mu.Unlock()
	old, seen := f.hashes[p]
	if !seen {
		f.hashes[p] = h
		return
	}
	if old != h && f.err == nil {
		f.err = fmt.Errorf("packet %p changed after transmission, caught at %v %s: now %v", p, at, when, p)
	}
}

// verify re-hashes every packet seen during the trial.
func (f *freezeCheck) verify() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	for p, h := range f.hashes {
		if packetHash(p) != h {
			return fmt.Errorf("packet %p changed after transmission, caught at the end of the trial: now %v", p, p)
		}
	}
	return nil
}

// frozenStack routes every packet a stack is handed through the check.
// It always offers HandleLinkFailure, a no-op when the inner stack has
// none, exactly as the link layer treats a stack without the interface.
type frozenStack struct {
	inner node.Stack
	id    packet.NodeID
	f     *freezeCheck
}

func (s *frozenStack) Start(dev *node.Device) { s.inner.Start(dev) }

func (s *frozenStack) HandleMessage(p *packet.Packet) {
	s.f.sight(p, s.id, "before its handler")
	s.inner.HandleMessage(p)
	s.f.sight(p, s.id, "after its handler")
}

func (s *frozenStack) HandleLinkFailure(p *packet.Packet) {
	s.f.sight(p, s.id, "before its link-failure handler")
	if h, ok := s.inner.(node.LinkFailureHandler); ok {
		h.HandleLinkFailure(p)
	}
	s.f.sight(p, s.id, "after its link-failure handler")
}

// frozenGateway keeps a wrapped gateway reachable by the round controller.
type frozenGateway struct{ *frozenStack }

func (g frozenGateway) SetPlace(place, round int, moved bool) {
	g.inner.(core.PlacedGateway).SetPlace(place, round, moved)
}

func (f *freezeCheck) wrap(id packet.NodeID, st node.Stack) node.Stack {
	base := &frozenStack{inner: st, id: id, f: f}
	if _, ok := st.(core.PlacedGateway); ok {
		return frozenGateway{base}
	}
	return base
}

// armFreeze instruments a trial with a fresh freezeCheck: sensor stacks
// through StackWrapper (under wrapInner, when given), gateway stacks by
// SwapStack once the network is built.
func armFreeze(wrapInner func(packet.NodeID, node.Stack) node.Stack) func(cfg *scenario.Config) func() error {
	return func(cfg *scenario.Config) func() error {
		f := &freezeCheck{hashes: make(map[*packet.Packet]uint64)}
		cfg.StackWrapper = func(id packet.NodeID, st node.Stack) node.Stack {
			if wrapInner != nil {
				st = wrapInner(id, st)
			}
			return f.wrap(id, st)
		}
		cfg.Mutate = func(n *scenario.Net) {
			for _, id := range n.GatewayIDs {
				if d := n.World.Device(id); d != nil && d.Stack() != nil {
					d.SwapStack(f.wrap(id, d.Stack()))
				}
			}
		}
		return f.verify
	}
}

// mutatingStack is a deliberately broken stack: it writes to the shared
// packets it receives before handing them on.
type mutatingStack struct {
	node.Stack
	mutate func(*packet.Packet)
}

func (m mutatingStack) HandleMessage(p *packet.Packet) {
	m.mutate(p)
	m.Stack.HandleMessage(p)
}

// The freeze check must bite: one sensor writing a received packet's TTL,
// or the first byte of its payload, fails the trial loudly.
func TestFreezeCheckCatchesInPlaceMutation(t *testing.T) {
	for name, mutate := range map[string]func(*packet.Packet){
		"ttl": func(p *packet.Packet) { p.TTL++ },
		"payload": func(p *packet.Packet) {
			if len(p.Payload) > 0 {
				p.Payload[0] ^= 0xFF
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			opt := Options{Seed: 11, Trials: 1, RunFor: 20 * sim.Second,
				Protocols: []scenario.Protocol{scenario.SecMLR}} // RREQs always carry a payload
			bad := func(id packet.NodeID, st node.Stack) node.Stack {
				if id != 1 {
					return st
				}
				return mutatingStack{Stack: st, mutate: mutate}
			}
			_, err := soak(opt, armFreeze(bad))
			if err == nil {
				t.Fatal("a stack writing received packets passed the freeze check")
			}
			if !strings.Contains(err.Error(), "changed after transmission") {
				t.Fatalf("trial failed for another reason: %v", err)
			}
		})
	}
}
