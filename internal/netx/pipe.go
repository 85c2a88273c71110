package netx

import (
	"bytes"
	"io"
	"net"
	"sync"
	"time"
)

// Pipe returns a connected pair of in-process duplex connections whose
// blocking is scheduler-aware (unlike net.Pipe, which would stall a
// virtual-time simulation). Writes never block; reads block until data or
// close. Write copies the slice into the peer's receive buffer, which is
// kept and reused across reads.
func Pipe(env Env) (net.Conn, net.Conn) {
	var mu sync.Mutex
	a := &pipeEnd{mu: &mu}
	b := &pipeEnd{mu: &mu}
	a.cond = env.Sync.NewCond(&mu)
	b.cond = env.Sync.NewCond(&mu)
	a.peer, b.peer = b, a
	return a, b
}

type pipeEnd struct {
	mu   *sync.Mutex
	cond Cond
	peer *pipeEnd

	buf    bytes.Buffer
	closed bool
}

// Read implements net.Conn.
func (p *pipeEnd) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.buf.Len() > 0 {
			return p.buf.Read(b)
		}
		if p.closed {
			return 0, net.ErrClosed
		}
		if p.peer.closed {
			return 0, io.EOF
		}
		p.cond.Wait()
	}
}

// Write implements net.Conn.
func (p *pipeEnd) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.peer.closed {
		return 0, net.ErrClosed
	}
	p.peer.buf.Write(b)
	p.peer.cond.Broadcast()
	return len(b), nil
}

// Close implements net.Conn.
func (p *pipeEnd) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
	p.peer.cond.Broadcast()
	return nil
}

// LocalAddr implements net.Conn.
func (p *pipeEnd) LocalAddr() net.Addr { return pipeAddr{} }

// RemoteAddr implements net.Conn.
func (p *pipeEnd) RemoteAddr() net.Addr { return pipeAddr{} }

// SetDeadline implements net.Conn (pipes do not support deadlines).
func (p *pipeEnd) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn.
func (p *pipeEnd) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn.
func (p *pipeEnd) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
