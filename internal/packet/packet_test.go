package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Kind:    KindData,
		From:    3,
		To:      7,
		Origin:  1,
		Target:  100,
		Seq:     42,
		TTL:     16,
		Hops:    2,
		Path:    []NodeID{1, 3, 7, 100},
		Payload: []byte("temp=21.5"),
		Sec: &SecEnvelope{
			Counter: 9,
			Cipher:  []byte{1, 2, 3, 4, 5},
			MAC:     bytes.Repeat([]byte{0xAB}, 32),
		},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n p=%+v\ngot=%+v", p, got)
	}
}

func TestMarshalRoundTripMinimal(t *testing.T) {
	p := &Packet{Kind: KindHello, From: 1, To: Broadcast, Origin: 1, Target: Broadcast}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", p, got)
	}
}

func TestSizeMatchesMarshal(t *testing.T) {
	ps := []*Packet{
		samplePacket(),
		{Kind: KindHello, From: 1, To: Broadcast, Origin: 1, Target: Broadcast},
		{Kind: KindRReq, From: 2, To: Broadcast, Origin: 2, Target: Broadcast,
			Path: []NodeID{2}, TTL: 32},
		{Kind: KindNotify, From: 9, To: Broadcast, Origin: 9, Target: Broadcast,
			Payload: make([]byte, 100)},
	}
	for _, p := range ps {
		if got, want := len(p.Marshal()), p.Size(); got != want {
			t.Errorf("%s: marshal len %d != Size %d", p.Kind, got, want)
		}
		if p.SizeBits() != p.Size()*8 {
			t.Errorf("SizeBits inconsistent")
		}
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	full := samplePacket().Marshal()
	for _, n := range []int{0, 1, 10, headerBytes - 1, headerBytes + 2, len(full) - 1} {
		if _, err := Unmarshal(full[:n]); err == nil {
			t.Errorf("Unmarshal of %d/%d bytes succeeded", n, len(full))
		}
	}
}

func TestUnmarshalBadKind(t *testing.T) {
	buf := samplePacket().Marshal()
	buf[0] = 0
	if _, err := Unmarshal(buf); err != ErrBadKind {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
	buf[0] = byte(kindMax)
	if _, err := Unmarshal(buf); err != ErrBadKind {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	if !reflect.DeepEqual(p, q) {
		t.Fatal("clone differs from original")
	}
	q.Path[0] = 99
	q.Payload[0] = 'X'
	q.Sec.Cipher[0] = 0xFF
	q.Sec.Counter = 1000
	if p.Path[0] == 99 || p.Payload[0] == 'X' || p.Sec.Cipher[0] == 0xFF || p.Sec.Counter == 1000 {
		t.Fatal("mutating clone affected original")
	}
}

func TestCloneNilSec(t *testing.T) {
	p := &Packet{Kind: KindData, From: 1, To: 2, Origin: 1, Target: 2}
	q := p.Clone()
	if q.Sec != nil {
		t.Fatal("clone invented a Sec envelope")
	}
}

// Forward is a header-only copy: header writes stay private to the copy,
// while Path, Payload and Sec are the original's own backing storage.
func TestForwardAliasesBodies(t *testing.T) {
	p := samplePacket()
	q := p.Forward()
	if q == p || !reflect.DeepEqual(p, q) {
		t.Fatal("Forward must return a distinct, equal packet")
	}
	if &q.Path[0] != &p.Path[0] || &q.Payload[0] != &p.Payload[0] || q.Sec != p.Sec {
		t.Fatal("Forward copied a body; it must alias Path, Payload and Sec")
	}
	q.From, q.To, q.Target = 50, 51, 52
	q.TTL--
	q.Hops++
	if p.From != 3 || p.To != 7 || p.Target != 100 || p.TTL != 16 || p.Hops != 2 {
		t.Fatalf("header rewrite on the forward copy leaked into the original: %v", p)
	}
	q.Path = q.AppendHop(51)
	if len(p.Path) != 4 {
		t.Fatal("replacing the copy's path touched the original")
	}
}

// AppendHop must never write into the source path's backing array, even
// when it has spare capacity: the source is a shared, read-only packet.
func TestAppendHopNeverAliasesSource(t *testing.T) {
	for _, c := range []int{2, 3, 8} {
		p := &Packet{Kind: KindRReq, Path: make([]NodeID, 2, c)}
		p.Path[0], p.Path[1] = 1, 2
		a := p.AppendHop(3)
		if &a[0] == &p.Path[0] {
			t.Fatalf("cap %d: AppendHop result shares the source's backing array", c)
		}
		if c > 2 && p.Path[:3][2] != 0 {
			t.Fatalf("cap %d: AppendHop wrote into the source's spare capacity", c)
		}
		a[0] = 99
		if p.Path[0] != 1 {
			t.Fatalf("cap %d: writing the extended path changed the source", c)
		}
	}
}

func TestAppendHopDoesNotAlias(t *testing.T) {
	p := &Packet{Kind: KindRReq, Path: make([]NodeID, 2, 8)}
	p.Path[0], p.Path[1] = 1, 2
	a := p.AppendHop(3)
	b := p.AppendHop(4)
	if a[2] != 3 || b[2] != 4 {
		t.Fatalf("AppendHop results corrupted: %v %v", a, b)
	}
	if len(p.Path) != 2 {
		t.Fatal("AppendHop mutated source path")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindHello: "HELLO", KindRReq: "RREQ", KindRRes: "RRES",
		KindData: "DATA", KindNotify: "NOTIFY", KindAck: "ACK",
		KindMeshLSA: "MESH-LSA", KindInvalid: "INVALID",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestNodeIDString(t *testing.T) {
	if Broadcast.String() != "BCAST" || None.String() != "-" || NodeID(5).String() != "n5" {
		t.Fatalf("NodeID strings: %q %q %q", Broadcast.String(), None.String(), NodeID(5).String())
	}
}

func TestPathString(t *testing.T) {
	if got := PathString(nil); got != "-" {
		t.Fatalf("PathString(nil) = %q", got)
	}
	if got := PathString([]NodeID{1, 2, 3}); got != "n1->n2->n3" {
		t.Fatalf("PathString = %q", got)
	}
}

func TestPacketString(t *testing.T) {
	s := samplePacket().String()
	for _, frag := range []string{"DATA", "n3->n7", "seq=42", "path=", "sec{C=9}"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary packets.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(kindRaw uint8, from, to, origin, target uint32, seq uint32,
		ttl, hops uint8, nPath uint8, payload []byte, hasSec bool, ctr uint64) bool {
		p := &Packet{
			Kind: Kind(kindRaw%uint8(kindMax-1)) + 1,
			From: NodeID(from), To: NodeID(to),
			Origin: NodeID(origin), Target: NodeID(target),
			Seq: seq, TTL: ttl, Hops: hops,
		}
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		if len(payload) > 0 {
			p.Payload = payload
		}
		for i := 0; i < int(nPath%40); i++ {
			p.Path = append(p.Path, NodeID(rng.Uint32()))
		}
		if hasSec {
			mac := make([]byte, 32)
			rng.Read(mac)
			cipher := make([]byte, rng.Intn(64))
			rng.Read(cipher)
			p.Sec = &SecEnvelope{Counter: ctr, MAC: mac}
			if len(cipher) > 0 {
				p.Sec.Cipher = cipher
			}
		}
		got, err := Unmarshal(p.Marshal())
		return err == nil && reflect.DeepEqual(p, got) && len(p.Marshal()) == p.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmarshal never panics on random input.
func TestQuickUnmarshalNoPanics(t *testing.T) {
	f := func(buf []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Unmarshal panicked on %d bytes: %v", len(buf), r)
			}
		}()
		Unmarshal(buf)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Marshal()
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	buf := samplePacket().Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
