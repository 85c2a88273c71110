package mux

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"scholarcloud/internal/netx"
)

// trackedSpawner runs goroutines and lets the test wait for all of them,
// so a session's read loop, acceptors and relays are known to be done.
type trackedSpawner struct{ wg sync.WaitGroup }

func (s *trackedSpawner) Go(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

func encodeFrame(typ byte, id uint32, payload string) []byte {
	f := make([]byte, 9, 9+len(payload))
	f[0] = typ
	binary.BigEndian.PutUint32(f[1:], id)
	binary.BigEndian.PutUint32(f[5:], uint32(len(payload)))
	return append(f, payload...)
}

// firstBadFrame reports whether the well-formed prefix of data is
// followed by a header the read loop must reject (unknown type or
// oversized length), as opposed to ending cleanly or mid-frame.
func firstBadFrame(data []byte) bool {
	for len(data) >= 9 {
		typ, n := data[0], binary.BigEndian.Uint32(data[5:])
		if typ < frameOpen || typ > framePong || n > maxFramePayload {
			return true
		}
		if uint64(len(data)-9) < uint64(n) {
			return false
		}
		data = data[9+n:]
	}
	return false
}

// FuzzSessionFrames feeds arbitrary carrier bytes to an accepting session
// whose acceptor echoes every stream. The session must not panic, must
// fail on its own at the first malformed header, must release every
// goroutine once the carrier closes, and its reused read buffer must never
// outgrow one frame.
func FuzzSessionFrames(f *testing.F) {
	f.Add(append(append(encodeFrame(frameOpen, 1, "echo.example:7"),
		encodeFrame(frameData, 1, "hello mux")...),
		encodeFrame(frameClose, 1, "")...))
	f.Add(encodeFrame(framePing, 0, "keepalive"))
	f.Add(append(encodeFrame(framePing, 7, ""), encodeFrame(framePong, 7, "")...))
	f.Add(append(encodeFrame(frameOpen, 2, "x:1"), encodeFrame(frameOpenFail, 2, "forbidden")...))
	f.Add(append(encodeFrame(frameOpenOK, 3, ""), 0xff, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add([]byte{frameData, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		spawn := &trackedSpawner{}
		env := netx.RealEnv()
		env.Spawn = spawn
		peer, carrier := netx.Pipe(env)
		s := NewSession(carrier, env, func([]byte) (net.Conn, error) {
			up, echo := netx.Pipe(env)
			spawn.Go(func() { netx.Copy(echo, echo) })
			return up, nil
		})
		peer.Write(data)

		if firstBadFrame(data) {
			if err := waitErr(s); err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("malformed frame: session err = %v, want a protocol error", err)
			}
		}
		peer.Close()
		if err := waitErr(s); err == nil {
			t.Fatal("session survived its carrier closing")
		}
		done := make(chan struct{})
		go func() { spawn.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("session goroutines still running after the carrier closed")
		}
		if c := cap(s.rbuf); c > maxFramePayload {
			t.Fatalf("read buffer grew to %d bytes, past one frame (%d)", c, maxFramePayload)
		}
	})
}

// waitErr polls until the session fails, or gives up after 5 s.
func waitErr(s *Session) error {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}
