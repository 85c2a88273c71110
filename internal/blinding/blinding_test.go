package blinding

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"

	"scholarcloud/internal/tlssim"
)

func schemes() []Scheme {
	return []Scheme{
		NewByteMap([]byte("key-1")),
		NewXORStream([]byte("key-1")),
		Identity{},
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	for _, s := range schemes() {
		s := s
		f := func(data []byte) bool {
			enc := s.NewEncoder()
			dec := s.NewDecoder()
			wire := make([]byte, len(data))
			enc.Apply(wire, data)
			back := make([]byte, len(wire))
			dec.Apply(back, wire)
			return bytes.Equal(back, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestRoundTripSurvivesResegmentation(t *testing.T) {
	// The inter-proxy tunnel cannot control TCP segmentation, so decoding
	// in different chunk sizes than encoding must still work.
	for _, s := range schemes() {
		data := make([]byte, 10000)
		for i := range data {
			data[i] = byte(i * 31)
		}
		enc := s.NewEncoder()
		wire := make([]byte, len(data))
		enc.Apply(wire, data)

		dec := s.NewDecoder()
		var back []byte
		for off := 0; off < len(wire); {
			chunk := 1 + (off*7)%613
			if off+chunk > len(wire) {
				chunk = len(wire) - off
			}
			out := make([]byte, chunk)
			dec.Apply(out, wire[off:off+chunk])
			back = append(back, out...)
			off += chunk
		}
		if !bytes.Equal(back, data) {
			t.Errorf("%s: resegmented round trip corrupted data", s.Name())
		}
	}
}

func TestByteMapIsPermutation(t *testing.T) {
	m := NewByteMap([]byte("any key"))
	seen := make(map[byte]bool)
	enc := m.NewEncoder()
	for i := 0; i < 256; i++ {
		out := make([]byte, 1)
		enc.Apply(out, []byte{byte(i)})
		if seen[out[0]] {
			t.Fatalf("byte map not injective at %d", i)
		}
		seen[out[0]] = true
	}
}

func TestDifferentKeysGiveDifferentMappings(t *testing.T) {
	a := NewByteMap([]byte("key-a")).NewEncoder()
	b := NewByteMap([]byte("key-b")).NewEncoder()
	in := []byte("the same plaintext bytes")
	outA := make([]byte, len(in))
	outB := make([]byte, len(in))
	a.Apply(outA, in)
	b.Apply(outB, in)
	if bytes.Equal(outA, outB) {
		t.Error("different keys produced identical encodings")
	}
}

func TestBlindingDestroysTLSFingerprint(t *testing.T) {
	// The core mechanism of the paper: a TLS record header is what the
	// GFW's DPI keys on; after blinding it must no longer parse as one.
	record := []byte{0x16, 0x03, 0x03, 0x00, 0x40}
	record = append(record, bytes.Repeat([]byte{0xAB}, 0x40)...)
	if !tlssim.LooksLikeRecordHeader(record) {
		t.Fatal("test record not recognized before blinding")
	}
	for _, s := range []Scheme{NewByteMap([]byte("k")), NewXORStream([]byte("k"))} {
		enc := s.NewEncoder()
		wire := make([]byte, len(record))
		enc.Apply(wire, record)
		if tlssim.LooksLikeRecordHeader(wire) {
			t.Errorf("%s: blinded stream still fingerprints as TLS", s.Name())
		}
	}
}

func TestIdentityPreservesFingerprint(t *testing.T) {
	record := []byte{0x16, 0x03, 0x03, 0x00, 0x01, 0x00}
	enc := Identity{}.NewEncoder()
	wire := make([]byte, len(record))
	enc.Apply(wire, record)
	if !tlssim.LooksLikeRecordHeader(wire) {
		t.Error("identity scheme altered the stream")
	}
}

func TestSchemeForEpochRotation(t *testing.T) {
	secret := []byte("shared")
	s0 := SchemeForEpoch(secret, 0)
	s1 := SchemeForEpoch(secret, 1)
	s2 := SchemeForEpoch(secret, 2)
	if s0.Name() == s1.Name() {
		t.Error("adjacent epochs use the same scheme family")
	}
	// Same family at epochs 0 and 2, but different key material.
	in := []byte("probe probe probe probe")
	out0 := make([]byte, len(in))
	out2 := make([]byte, len(in))
	s0.NewEncoder().Apply(out0, in)
	s2.NewEncoder().Apply(out2, in)
	if bytes.Equal(out0, out2) {
		t.Error("epochs 0 and 2 produced identical encodings")
	}
}

func TestSchemeForEpochDeterministic(t *testing.T) {
	in := []byte("deterministic")
	a := make([]byte, len(in))
	b := make([]byte, len(in))
	SchemeForEpoch([]byte("s"), 7).NewEncoder().Apply(a, in)
	SchemeForEpoch([]byte("s"), 7).NewEncoder().Apply(b, in)
	if !bytes.Equal(a, b) {
		t.Error("same secret+epoch gave different encodings")
	}
}

func TestParseScheme(t *testing.T) {
	for _, name := range []string{"bytemap", "xorstream", "identity", "none"} {
		if _, err := ParseScheme(name, []byte("k")); err != nil {
			t.Errorf("ParseScheme(%q): %v", name, err)
		}
	}
	if _, err := ParseScheme("rot13", []byte("k")); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestWrapConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	scheme := NewByteMap([]byte("tunnel-key"))
	// a encodes writes; b decodes reads (and vice versa).
	wa := WrapConn(a, scheme)
	wb := WrapConn(b, scheme)

	msg := []byte("GET /scholar HTTP/1.1\r\n")
	go wa.Write(msg)
	buf := make([]byte, len(msg))
	if _, err := wb.Read(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("through blinded pipe: %q", buf)
	}
}

func TestWrapConnWireBytesAreBlinded(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	scheme := NewByteMap([]byte("tunnel-key"))
	wa := WrapConn(a, scheme)

	msg := []byte("GET /scholar HTTP/1.1\r\n")
	go wa.Write(msg)
	wire := make([]byte, len(msg))
	if _, err := b.Read(wire); err != nil { // raw end: sees wire bytes
		t.Fatal(err)
	}
	if bytes.Equal(wire, msg) {
		t.Error("wire bytes identical to plaintext")
	}
	if bytes.Contains(wire, []byte("HTTP")) {
		t.Error("wire bytes leak protocol keywords")
	}
}

// wireSink records every byte written to it, as a carrier that copies on
// Write does.
type wireSink struct {
	net.Conn
	wire []byte
}

func (w *wireSink) Write(b []byte) (int, error) {
	w.wire = append(w.wire, b...)
	return len(b), nil
}

// Write reuses one encode buffer across calls; the caller's slices must
// come through untouched, and the stream of encoded writes must equal a
// one-shot encode of their concatenation.
func TestWriteLeavesCallerSliceAndStreamIntact(t *testing.T) {
	for _, s := range schemes() {
		sink := &wireSink{}
		c := WrapConn(sink, s)
		var plain []byte
		for i, n := range []int{16, 3000, 5, 70000, 1, 900} {
			msg := bytes.Repeat([]byte{byte('a' + i)}, n)
			orig := bytes.Clone(msg)
			if _, err := c.Write(msg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(msg, orig) {
				t.Fatalf("%s: Write of %d bytes modified the caller's slice", s.Name(), n)
			}
			plain = append(plain, msg...)
		}
		want := make([]byte, len(plain))
		s.NewEncoder().Apply(want, plain)
		if !bytes.Equal(sink.wire, want) {
			t.Errorf("%s: chunked writes differ from a one-shot encode", s.Name())
		}
	}
}

type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

func TestWriteAllocsAfterWarmup(t *testing.T) {
	c := WrapConn(discardConn{}, NewXORStream([]byte("key-1")))
	msg := make([]byte, 32<<10)
	c.Write(msg)
	if n := testing.AllocsPerRun(100, func() { c.Write(msg) }); n != 0 {
		t.Errorf("warm Write: %.2f allocs, want 0", n)
	}
}
