// Package blinding implements ScholarCloud's message blinding (§3 of the
// paper): reversible, keyed byte-level encodings applied to the already-
// encrypted stream between the domestic and remote proxies. Blinding does
// not add confidentiality — the payload underneath is already encrypted —
// it destroys the *protocol structure* that deep packet inspection
// fingerprints: after blinding, a TLS record header no longer looks like a
// TLS record header, and the stream matches no known-protocol classifier.
//
// Because ScholarCloud controls both proxies, the scheme can be rotated at
// any time without touching clients (SchemeForEpoch); this is the "agility
// against the GFW's reactions" the paper claims over Tor and Shadowsocks.
package blinding

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// Transform is a stateful, direction-specific byte-stream transformation.
// Apply processes src into dst (same length); implementations may keep
// stream position state, so a Transform must be used by one direction of
// one connection only.
type Transform interface {
	Apply(dst, src []byte)
}

// Scheme produces paired encoder/decoder transforms.
type Scheme interface {
	// Name identifies the scheme ("bytemap", "xorstream", "identity").
	Name() string
	// NewEncoder returns a fresh encoding transform.
	NewEncoder() Transform
	// NewDecoder returns a fresh decoding transform.
	NewDecoder() Transform
}

// --- Byte-mapping permutation (the paper's example: f: [0,2^8) -> [0,2^8)) ---

// ByteMap is a keyed byte-substitution scheme. It is stateless per byte,
// so it survives TCP re-segmentation — a property the inter-proxy tunnel
// relies on.
type ByteMap struct {
	name    string
	forward [256]byte
	inverse [256]byte
}

// NewByteMap derives a byte permutation from key material.
func NewByteMap(key []byte) *ByteMap {
	m := &ByteMap{name: "bytemap"}
	seed := sha256.Sum256(append([]byte("scholarcloud-bytemap:"), key...))
	state := binary.BigEndian.Uint64(seed[:8])
	next := func() uint64 {
		// splitmix64 step for a deterministic, well-mixed sequence.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range m.forward {
		m.forward[i] = byte(i)
	}
	// Fisher-Yates with the keyed PRNG.
	for i := 255; i > 0; i-- {
		j := int(next() % uint64(i+1))
		m.forward[i], m.forward[j] = m.forward[j], m.forward[i]
	}
	for i, v := range m.forward {
		m.inverse[v] = byte(i)
	}
	return m
}

// Name implements Scheme.
func (m *ByteMap) Name() string { return m.name }

// NewEncoder implements Scheme.
func (m *ByteMap) NewEncoder() Transform { return tableTransform{&m.forward} }

// NewDecoder implements Scheme.
func (m *ByteMap) NewDecoder() Transform { return tableTransform{&m.inverse} }

type tableTransform struct{ table *[256]byte }

func (t tableTransform) Apply(dst, src []byte) {
	for i, b := range src {
		dst[i] = t.table[b]
	}
}

// --- XOR keystream ---

// XORStream is a position-keyed XOR scheme: keystream blocks are
// SHA-256(key || blockIndex). Unlike ByteMap it is position-dependent, so
// the same plaintext byte maps to different wire bytes at different
// offsets, defeating frequency analysis of the mapping itself.
type XORStream struct {
	key []byte
}

// NewXORStream creates the scheme from key material.
func NewXORStream(key []byte) *XORStream {
	k := append([]byte("scholarcloud-xorstream:"), key...)
	sum := sha256.Sum256(k)
	return &XORStream{key: sum[:]}
}

// Name implements Scheme.
func (x *XORStream) Name() string { return "xorstream" }

// NewEncoder implements Scheme.
func (x *XORStream) NewEncoder() Transform { return &xorState{key: x.key} }

// NewDecoder implements Scheme. XOR is an involution, so the decoder is
// identical to the encoder.
func (x *XORStream) NewDecoder() Transform { return &xorState{key: x.key} }

type xorState struct {
	key    []byte
	offset uint64
	block  [32]byte
	have   int // bytes of block remaining
	h      hash.Hash
	ctr    [8]byte // lives here, not on the stack: h.Write would move it to the heap
}

func (s *xorState) Apply(dst, src []byte) {
	for i := range src {
		if s.have == 0 {
			if s.h == nil {
				s.h = sha256.New()
			}
			binary.BigEndian.PutUint64(s.ctr[:], s.offset/32)
			s.h.Reset()
			s.h.Write(s.key)
			s.h.Write(s.ctr[:])
			s.h.Sum(s.block[:0])
			s.have = 32
		}
		dst[i] = src[i] ^ s.block[32-s.have]
		s.have--
		s.offset++
	}
}

// --- Identity (no blinding; useful as an ablation baseline) ---

// Identity passes bytes through unchanged. Benchmarks use it to show what
// happens to the inter-proxy tunnel when blinding is disabled: the GFW's
// TLS fingerprinting sees the raw records again.
type Identity struct{}

// Name implements Scheme.
func (Identity) Name() string { return "identity" }

// NewEncoder implements Scheme.
func (Identity) NewEncoder() Transform { return copyTransform{} }

// NewDecoder implements Scheme.
func (Identity) NewDecoder() Transform { return copyTransform{} }

type copyTransform struct{}

func (copyTransform) Apply(dst, src []byte) { copy(dst, src) }

// SchemeForEpoch derives the blinding scheme both proxies use during a
// rotation epoch. Even epochs use a byte map, odd epochs an XOR stream;
// every epoch has fresh key material, so a middlebox that learned one
// epoch's mapping learns nothing about the next.
func SchemeForEpoch(secret []byte, epoch uint64) Scheme {
	material := make([]byte, 0, len(secret)+9)
	material = append(material, secret...)
	material = append(material, ':')
	material = binary.BigEndian.AppendUint64(material, epoch)
	if epoch%2 == 0 {
		return NewByteMap(material)
	}
	return NewXORStream(material)
}

// ParseScheme builds a scheme from a name and key, for configuration
// files and command-line flags.
func ParseScheme(name string, key []byte) (Scheme, error) {
	switch name {
	case "bytemap":
		return NewByteMap(key), nil
	case "xorstream":
		return NewXORStream(key), nil
	case "identity", "none":
		return Identity{}, nil
	default:
		return nil, fmt.Errorf("blinding: unknown scheme %q", name)
	}
}
