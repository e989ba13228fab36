// Package wsncrypto implements the symmetric-cryptography substrate SecMLR
// relies on (§6.2): pairwise key pre-distribution between sensor nodes and
// gateways, counter-mode encryption {M}<Kij,C>, message authentication codes
// MAC(Kij, M), replay protection via incremental counters, and µTESLA-style
// hash-chain authenticated broadcast for gateway movement notifications
// (§6.2.3, citing SPINS).
//
// Primitives are AES-128-CTR and HMAC-SHA-256 from the Go standard library.
// The paper's security argument is structural (who holds which key, how
// freshness is established); any sound symmetric primitives exercise the
// same protocol paths, per the substitution notes in DESIGN.md.
package wsncrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"wmsn/internal/packet"
)

// KeySize is the symmetric key length in bytes (AES-128).
const KeySize = 16

// MACSize is the authentication tag length in bytes (HMAC-SHA-256).
const MACSize = 32

// Key is a pairwise symmetric key Kij shared between a sensor node Si and a
// gateway Gj.
type Key [KeySize]byte

// DeriveKey derives the pairwise key for (node, gateway) from a network
// master secret: Kij = HMAC(master, "pair" | Si | Gj) truncated to KeySize.
// Pre-distribution means every sensor is loaded with its m gateway keys
// before deployment and gateways are loaded with the keys of all n sensors;
// the master secret itself never exists on any deployed node.
func DeriveKey(master []byte, nodeID, gatewayID packet.NodeID) Key {
	mac := hmac.New(sha256.New, master)
	var buf [12]byte
	copy(buf[:4], "pair")
	binary.BigEndian.PutUint32(buf[4:], uint32(nodeID))
	binary.BigEndian.PutUint32(buf[8:], uint32(gatewayID))
	mac.Write(buf[:])
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}

// Encrypt computes {M}<K,C>: AES-128-CTR with an IV bound to the counter.
// Counter reuse under the same key is a protocol violation the caller
// (SecMLR) prevents by incrementing C on every message.
func Encrypt(k Key, counter uint64, plaintext []byte) []byte {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(err) // impossible: KeySize is a valid AES key length
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], counter)
	out := make([]byte, len(plaintext))
	cipher.NewCTR(block, iv[:]).XORKeyStream(out, plaintext)
	return out
}

// Decrypt inverts Encrypt (CTR mode is an involution).
func Decrypt(k Key, counter uint64, ciphertext []byte) []byte {
	return Encrypt(k, counter, ciphertext)
}

// Sum computes MAC(K, C | data): HMAC-SHA-256 over the counter and the
// message, exactly the tag format of §6.2.1.
func Sum(k Key, counter uint64, data []byte) []byte {
	mac := hmac.New(sha256.New, k[:])
	var c [8]byte
	binary.BigEndian.PutUint64(c[:], counter)
	mac.Write(c[:])
	mac.Write(data)
	return mac.Sum(nil)
}

// Verify checks tag against MAC(K, C | data) in constant time.
func Verify(k Key, counter uint64, data, tag []byte) bool {
	return hmac.Equal(tag, Sum(k, counter, data))
}

// MACCache computes the same tags as Sum and Verify, but keeps one keyed
// HMAC-SHA-256 state per key and Resets it between messages instead of
// building the keyed pads on every call. The zero value is ready to use. A
// cache is not safe for concurrent use: each party (one SecMLR sensor or
// gateway stack) owns its own, so the cache lives and dies with that
// stack and its hit rate does not depend on the scheduler.
type MACCache struct {
	macs map[Key]hash.Hash
	// Scratch for the counter prefix and Verify's tag: buffers handed to a
	// hash.Hash escape, so they live here rather than on the stack.
	ctr [8]byte
	sum [MACSize]byte
}

// keyed returns k's HMAC state, reset and primed with the counter.
func (c *MACCache) keyed(k Key, counter uint64) hash.Hash {
	mac, ok := c.macs[k]
	if ok {
		mac.Reset()
	} else {
		if c.macs == nil {
			c.macs = make(map[Key]hash.Hash)
		}
		key := k // k[:] would escape via hmac.New and heap-allocate k on hits too
		mac = hmac.New(sha256.New, key[:])
		c.macs[k] = mac
	}
	binary.BigEndian.PutUint64(c.ctr[:], counter)
	mac.Write(c.ctr[:])
	return mac
}

// Sum is Sum(k, counter, data) through the cached state.
func (c *MACCache) Sum(k Key, counter uint64, data []byte) []byte {
	mac := c.keyed(k, counter)
	mac.Write(data)
	return mac.Sum(nil)
}

// Verify is Verify(k, counter, data, tag) through the cached state; it
// allocates nothing once k's state exists.
func (c *MACCache) Verify(k Key, counter uint64, data, tag []byte) bool {
	mac := c.keyed(k, counter)
	mac.Write(data)
	return hmac.Equal(tag, mac.Sum(c.sum[:0]))
}

// ReplayGuard tracks the counters accepted from one peer. The paper's
// counters are strictly incremental, so the guard accepts a counter only if
// it exceeds every previously accepted one; anything else is a replay (or a
// reordering indistinguishable from one, which a store-and-forward WSN can
// simply re-query).
type ReplayGuard struct {
	highest  uint64
	accepted bool // distinguishes "never seen" from "counter 0 accepted"
	Replays  uint64
}

// Accept reports whether counter is fresh, recording it when it is.
func (g *ReplayGuard) Accept(counter uint64) bool {
	if !g.accepted || counter > g.highest {
		g.highest = counter
		g.accepted = true
		return true
	}
	g.Replays++
	return false
}

// Highest returns the largest accepted counter and whether any was accepted.
func (g *ReplayGuard) Highest() (uint64, bool) { return g.highest, g.accepted }

// hashKey is one step of the TESLA one-way chain.
func hashKey(k []byte) []byte {
	h := sha256.Sum256(k)
	return h[:KeySize]
}

// TeslaChain is a µTESLA one-way key chain: K[n] is random, K[i] = H(K[i+1]),
// and K[0] is the public commitment. The broadcaster authenticates interval
// i's messages with K[i] and discloses K[i] after the interval ends;
// receivers verify a disclosed key by hashing it back to the newest
// authenticated key they hold.
type TeslaChain struct {
	keys [][]byte // keys[0] = commitment ... keys[n] = seed end
}

// NewTeslaChain builds a chain of n usable intervals from a seed secret.
func NewTeslaChain(seed []byte, n int) *TeslaChain {
	if n < 1 {
		panic("wsncrypto: tesla chain needs at least one interval")
	}
	keys := make([][]byte, n+1)
	last := sha256.Sum256(append([]byte("tesla-seed"), seed...))
	keys[n] = last[:KeySize]
	for i := n - 1; i >= 0; i-- {
		keys[i] = hashKey(keys[i+1])
	}
	return &TeslaChain{keys: keys}
}

// Commitment returns K[0], distributed to every node before deployment.
func (c *TeslaChain) Commitment() []byte { return append([]byte(nil), c.keys[0]...) }

// Intervals returns the number of usable broadcast intervals.
func (c *TeslaChain) Intervals() int { return len(c.keys) - 1 }

// KeyAt returns K[i] (1 ≤ i ≤ Intervals). Only the broadcaster holds the
// chain; receivers learn keys through disclosure.
func (c *TeslaChain) KeyAt(i int) []byte {
	if i < 1 || i >= len(c.keys) {
		panic("wsncrypto: tesla interval out of range")
	}
	return append([]byte(nil), c.keys[i]...)
}

// Authenticate MACs msg under interval i's key.
func (c *TeslaChain) Authenticate(i int, msg []byte) []byte {
	var k Key
	copy(k[:], c.KeyAt(i))
	return Sum(k, uint64(i), msg)
}

// TeslaVerifier is the receiver side: it holds the newest authenticated key
// and accepts a disclosed key only if it hash-chains back to it.
type TeslaVerifier struct {
	key      []byte // newest verified key (commitment initially)
	interval int    // interval of key (0 = commitment)
}

// NewTeslaVerifier starts from the public commitment K[0].
func NewTeslaVerifier(commitment []byte) *TeslaVerifier {
	return &TeslaVerifier{key: append([]byte(nil), commitment...)}
}

// AcceptKey verifies that disclosed is K[i] by hashing it i-interval times
// back to the held key. On success the verifier advances; on failure it is
// unchanged. Keys for already-passed intervals are rejected (they could be
// replays of old disclosures).
func (v *TeslaVerifier) AcceptKey(i int, disclosed []byte) bool {
	steps := i - v.interval
	if steps <= 0 || steps > 1<<16 {
		return false
	}
	h := append([]byte(nil), disclosed...)
	for s := 0; s < steps; s++ {
		h = hashKey(h)
	}
	if !hmac.Equal(h, v.key) {
		return false
	}
	v.key = append([]byte(nil), disclosed...)
	v.interval = i
	return true
}

// VerifyMessage checks a buffered message's tag against an already-accepted
// interval key. The caller must only trust messages whose tags arrived
// before the key was disclosed (the simulator's secure stack enforces that
// ordering with its buffering discipline).
func (v *TeslaVerifier) VerifyMessage(i int, msg, tag []byte) bool {
	if i != v.interval {
		return false
	}
	var k Key
	copy(k[:], v.key)
	return Verify(k, uint64(i), msg, tag)
}

// Interval returns the newest authenticated interval (0 until a disclosure
// is accepted).
func (v *TeslaVerifier) Interval() int { return v.interval }
