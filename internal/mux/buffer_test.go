package mux

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"scholarcloud/internal/netx"
)

// The read loop reuses one payload buffer for every frame, so the OPEN
// metadata handed to a slow acceptor must be its own copy: later frames
// of the same length land in the very bytes the acceptor would see.
func TestAcceptorMetaSurvivesLaterFrames(t *testing.T) {
	meta := []byte("scholar.google.com:443")
	entered := make(chan struct{})
	release := make(chan struct{})
	got := make(chan string, 1)
	client, server := realPair(func(m []byte) (net.Conn, error) {
		close(entered)
		<-release
		got <- string(m)
		return nil, errors.New("done")
	})
	defer client.Close()
	defer server.Close()

	go client.Open(meta)
	<-entered
	// A measured ping is echoed only after the server's read loop has
	// dispatched it, so once RTT returns the payload buffer has been
	// overwritten with the padding.
	if _, err := client.RTTPadded(5*time.Second, bytes.Repeat([]byte("X"), len(meta))); err != nil {
		t.Fatal(err)
	}
	close(release)
	if m := <-got; m != string(meta) {
		t.Errorf("acceptor saw meta %q, want %q", m, meta)
	}
}

// Random frame sizes against random partial reads on one stream: the
// bytes read must be the bytes delivered, in order, through every
// compaction and rewind of the stream's receive buffer, and that buffer
// must stay bounded by what is unread plus one frame.
func TestStreamBufferCompactionProperty(t *testing.T) {
	env := netx.RealEnv()
	a, b := netx.Pipe(env)
	s := NewSession(a, env, nil)
	defer b.Close()
	defer s.Close()

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s.mu.Lock()
		st := s.newStreamLocked(uint32(seed))
		s.mu.Unlock()

		var sent, recv []byte
		maxUnread := 0
		for op := 0; op < 400; op++ {
			unread := len(sent) - len(recv)
			if unread == 0 || rng.Intn(2) == 0 {
				payload := make([]byte, 1+rng.Intn(5000))
				rng.Read(payload)
				sent = append(sent, payload...)
				s.dispatch(frameData, st.id, payload)
				maxUnread = max(maxUnread, len(sent)-len(recv))
			} else {
				buf := make([]byte, 1+rng.Intn(7000))
				n, err := st.Read(buf)
				if err != nil {
					t.Fatalf("seed %d: read: %v", seed, err)
				}
				recv = append(recv, buf[:n]...)
			}
			s.mu.Lock()
			drained, held := st.off == len(st.buf), cap(st.buf)
			empty := len(st.buf) == 0
			s.mu.Unlock()
			if drained && !empty {
				t.Fatalf("seed %d: drained buffer not rewound (len %d)", seed, held)
			}
			if bound := 2 * (maxUnread + 5000); held > bound {
				t.Fatalf("seed %d: stream retains %d bytes, bound %d", seed, held, bound)
			}
		}
		for len(recv) < len(sent) {
			buf := make([]byte, 1+rng.Intn(7000))
			n, err := st.Read(buf)
			if err != nil {
				t.Fatalf("seed %d: drain: %v", seed, err)
			}
			recv = append(recv, buf[:n]...)
		}
		if !bytes.Equal(recv, sent) {
			t.Fatalf("seed %d: received bytes differ from sent (%d vs %d bytes)", seed, len(recv), len(sent))
		}
	}
}

// A warm 32 KiB stream round trip — client stream to upstream and back —
// allocates at most once: frames are built, read and buffered in reused
// buffers, and the relay copies through a pooled one.
func TestStreamRoundTripAllocs(t *testing.T) {
	env := netx.RealEnv()
	a, b := netx.Pipe(env)
	ups := make(chan net.Conn, 1)
	client := NewSession(a, env, nil)
	server := NewSession(b, env, func([]byte) (net.Conn, error) {
		up, down := netx.Pipe(env)
		ups <- down
		return up, nil
	})
	defer client.Close()
	defer server.Close()
	st, err := client.Open([]byte("bulk:443"))
	if err != nil {
		t.Fatal(err)
	}
	down := <-ups

	msg := bytes.Repeat([]byte("scholar"), maxFramePayload/7+1)[:maxFramePayload]
	got := make([]byte, len(msg))
	roundTrip := func() {
		if _, err := st.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(down, got); err != nil {
			t.Fatal(err)
		}
		if _, err := down.Write(got); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(st, got); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip() // warm every buffer on the path
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip corrupted the payload")
	}
	if n := testing.AllocsPerRun(50, roundTrip); n > 1 {
		t.Errorf("32 KiB stream round trip: %.2f allocs, want <= 1", n)
	}
}
