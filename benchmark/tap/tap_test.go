package tap

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"
)

// echoServer answers each connection by echoing what it reads and
// half-closing once the client has.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
				c.(*net.TCPConn).CloseWrite()
			}()
		}
	}()
	return ln
}

func TestByteConservationAndHalfClose(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	tp, err := Listen(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	conn, err := net.Dial("tcp", tp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	payload := make([]byte, 300<<10) // several tap buffers
	rand.New(rand.NewSource(1)).Read(payload)
	go func() {
		conn.Write(payload)
		// Half-close: the echo server must see EOF through the tap and
		// still be able to send the tail of the echo back.
		conn.(*net.TCPConn).CloseWrite()
	}()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo through the tap returned %d bytes, want %d identical", len(got), len(payload))
	}
	for _, dir := range []int{Up, Down} {
		c := tp.Counts(dir)
		if c.BytesIn != int64(len(payload)) || c.BytesOut != c.BytesIn {
			t.Errorf("direction %d: in=%d out=%d, want both %d", dir, c.BytesIn, c.BytesOut, len(payload))
		}
		if c.Reads < 2 {
			t.Errorf("direction %d: %d reads for %d bytes through a 64 KiB buffer", dir, c.Reads, len(payload))
		}
	}
	if tp.Bytes() != 2*int64(len(payload)) {
		t.Errorf("Bytes() = %d, want %d", tp.Bytes(), 2*len(payload))
	}
}

func TestStampsOnlyWhileArmed(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	tp, err := Listen(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	conn, err := net.Dial("tcp", tp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	roundTrip := func() {
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if up, down := tp.Disarm(); len(up)+len(down) != 0 {
		t.Fatalf("unarmed tap recorded %d+%d stamps", len(up), len(down))
	}
	before := time.Now()
	tp.Arm()
	roundTrip()
	up, down := tp.Disarm()
	if len(up) != 1 || len(down) != 1 {
		t.Fatalf("armed round trip recorded %d up and %d down stamps, want 1 and 1", len(up), len(down))
	}
	if up[0].Before(before) || down[0].Before(up[0]) {
		t.Errorf("stamps out of order: armed %v, up %v, down %v", before, up[0], down[0])
	}
	tp.Arm()
	if up, down := tp.Disarm(); len(up)+len(down) != 0 {
		t.Errorf("Arm did not clear the previous operation's stamps")
	}
}

func TestCloseSeversConnections(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	tp, err := Listen(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", tp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("x"))
	io.ReadFull(conn, make([]byte, 1))
	done := make(chan struct{})
	go func() { tp.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a connection open")
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("client connection still readable after Close")
	}
}
