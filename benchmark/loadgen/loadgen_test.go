package loadgen

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

func startPair(t *testing.T, corpus *Corpus, listeners int) (*Origin, *Client) {
	t.Helper()
	o, err := StartOrigin(corpus, listeners)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	c, err := Dial(o.Addrs()[0], corpus)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(30 * time.Second))
	// Straight to the origin: origin-form requests, as through a tunnel.
	c.setRequests("", o.Addrs()[:1])
	return o, c
}

// The request/response hot loop of client and origin together must not
// allocate: AllocsPerRun counts mallocs process-wide, so the origin's
// goroutine is covered too.
func TestHotLoopDoesNotAllocate(t *testing.T) {
	for _, size := range []int{1 << 10, 256 << 10} {
		corpus := NewCorpus(7, size)
		o, c := startPair(t, corpus, 1)
		keys := NewKeys(7, 0)
		if err := c.Do(keys.Next()); err != nil { // connection set-up, first buffers
			t.Fatal(err)
		}
		var failed error
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.Do(keys.Next()); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatal(failed)
		}
		if allocs != 0 {
			t.Errorf("%d-byte bodies: %v allocations per request/response, want 0", size, allocs)
		}
		if got := o.Hits(); got != 202 {
			t.Errorf("origin counted %d hits, want 202", got)
		}
	}
}

func TestKeyStreamIsReproducible(t *testing.T) {
	a, b, other, stream1 := NewKeys(42, 0), NewKeys(42, 0), NewKeys(43, 0), NewKeys(42, 1)
	same, differSeed, differStream := true, false, false
	for i := 0; i < 1000; i++ {
		x := a.Next()
		same = same && x == b.Next()
		differSeed = differSeed || x != other.Next()
		differStream = differStream || x != stream1.Next()
	}
	if !same {
		t.Error("two streams of the same seed diverged")
	}
	if !differSeed || !differStream {
		t.Error("a different seed or stream number produced the same keys")
	}
	if !bytes.Equal(NewCorpus(42, 4096).Body(9), NewCorpus(42, 4096).Body(9)) {
		t.Error("the same seed produced different bodies")
	}
	if bytes.Equal(NewCorpus(42, 4096).Body(9), NewCorpus(43, 4096).Body(9)) {
		t.Error("different seeds produced the same body")
	}
}

// A response with the right status and length but another key's bytes
// must be caught.
func TestClientRejectsWrongAnswers(t *testing.T) {
	corpus := NewCorpus(1, 2048)
	lying := NewCorpus(2, 2048)
	o, err := StartOrigin(lying, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c, err := Dial(o.Addrs()[0], corpus)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	c.setRequests("", o.Addrs())
	if err := c.Do(5); !errors.Is(err, ErrBody) {
		t.Errorf("body from another corpus: got %v, want ErrBody", err)
	}

	short := NewCorpus(1, 1024)
	o2, err := StartOrigin(short, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	c2, err := Dial(o2.Addrs()[0], corpus)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetDeadline(time.Now().Add(10 * time.Second))
	c2.setRequests("", o2.Addrs())
	if err := c2.Do(5); !errors.Is(err, ErrLength) {
		t.Errorf("short body: got %v, want ErrLength", err)
	}
}

func TestClientRejectsErrorStatus(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Read(make([]byte, 4096))
		conn.Write([]byte("HTTP/1.1 502 Bad Gateway\r\nContent-Length: 3\r\n\r\nbad"))
	}()
	corpus := NewCorpus(1, 3)
	c, err := Dial(ln.Addr().String(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	c.setRequests("", []string{ln.Addr().String()})
	if err := c.Do(1); !errors.Is(err, ErrStatus) {
		t.Errorf("502 response: got %v, want ErrStatus", err)
	}
}

func TestGatewayRequestsSpreadOverOrigins(t *testing.T) {
	corpus := NewCorpus(3, 512)
	c := &Client{corpus: corpus}
	c.Gateway([]string{"127.0.0.1:1", "127.0.0.1:22"})
	if len(c.reqs) != 2 {
		t.Fatalf("%d request templates, want 2", len(c.reqs))
	}
	want := "GET http://127.0.0.1:22/o/0000000000000000 HTTP/1.1\r\nHost: 127.0.0.1:22\r\n\r\n"
	if string(c.reqs[1]) != want {
		t.Errorf("template = %q\nwant       %q", c.reqs[1], want)
	}
	if got := string(c.reqs[1][c.keyOff[1] : c.keyOff[1]+keyWidth]); got != "0000000000000000" {
		t.Errorf("key field at %d = %q", c.keyOff[1], got)
	}
	if key, ok := parseKey([]byte("GET /o/00000000000000ff HTTP/1.1\r\nHost: x")); !ok || key != 255 {
		t.Errorf("parseKey = %d, %v; want 255, true", key, ok)
	}
	if _, ok := parseKey([]byte("POST /o/00000000000000ff HTTP/1.1")); ok {
		t.Error("parseKey accepted a POST")
	}
}
