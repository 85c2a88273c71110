package httpsim

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"

	"scholarcloud/internal/netx"
)

// Proxy is a forward HTTP proxy supporting absolute-URI requests and
// CONNECT tunnels. Both ScholarCloud proxies (domestic and remote) are
// built on it: the domestic proxy's Dial reaches origins through the
// blinded inter-proxy tunnel, while the remote proxy's Dial goes straight
// to the origin.
type Proxy struct {
	// Dial reaches the upstream target ("host:port"). Required. Used for
	// CONNECT tunnels.
	Dial func(address string) (net.Conn, error)
	// DialPlain, if set, is used for absolute-URI (cleartext HTTP)
	// requests instead of Dial — ScholarCloud routes those through a
	// proxy-to-proxy encrypted channel (the paper's no-double-encryption
	// rule). Defaults to Dial.
	DialPlain func(address string) (net.Conn, error)
	// Spawn runs the relay goroutines. Required.
	Spawn netx.Spawner
	// Authorize, if set, is consulted with the target host (no port) for
	// every request; an error yields 403 and the request is not proxied.
	Authorize func(host string) error
	// OnRequest, if set, observes every proxied target (metrics,
	// per-request CPU cost).
	OnRequest func(target string)
	// RoundTrip, if set, takes over upstream fetching for absolute-URI
	// requests (after Authorize/OnRequest). The domestic proxy installs
	// its shared content cache here: cache hits answer without any
	// upstream dial, misses go through the cache's coalesced fetch path.
	RoundTrip func(u *URL, req *Request) (*Response, error)

	mu     sync.Mutex
	closed bool
	lns    []net.Listener
}

// Serve accepts proxy clients from ln until it is closed.
func (p *Proxy) Serve(ln net.Listener) {
	p.mu.Lock()
	p.lns = append(p.lns, ln)
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.Spawn.Go(func() { p.ServeConn(conn) })
	}
}

// Close shuts down all listeners passed to Serve.
func (p *Proxy) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, ln := range p.lns {
		ln.Close()
	}
}

// ServeConn handles one proxy client connection.
func (p *Proxy) ServeConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		req, err := ReadRequest(br)
		if err != nil {
			return
		}
		if req.Method == "CONNECT" {
			p.handleConnect(conn, br, req)
			return // the connection is now a raw tunnel (or dead)
		}
		if !p.handleAbsolute(conn, req) {
			return
		}
	}
}

func (p *Proxy) handleConnect(conn net.Conn, br *bufio.Reader, req *Request) {
	target := req.Target
	host := target
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	if p.Authorize != nil {
		if err := p.Authorize(host); err != nil {
			resp := NewResponse(403, []byte(err.Error()))
			resp.Encode(conn)
			return
		}
	}
	if p.OnRequest != nil {
		p.OnRequest(target)
	}
	upstream, err := p.Dial(target)
	if err != nil {
		resp := NewResponse(502, []byte(fmt.Sprintf("dial %s: %v", target, err)))
		resp.Encode(conn)
		return
	}
	if err := NewResponse(200, nil).Encode(conn); err != nil {
		upstream.Close()
		return
	}
	// Bytes the client pipelined behind the CONNECT head.
	if n := br.Buffered(); n > 0 {
		buffered, _ := br.Peek(n)
		if _, err := upstream.Write(buffered); err != nil {
			upstream.Close()
			return
		}
		br.Discard(n)
	}
	Relay(p.Spawn, conn, upstream)
}

// handleAbsolute proxies one absolute-URI request and reports whether the
// client connection can be reused.
func (p *Proxy) handleAbsolute(conn net.Conn, req *Request) bool {
	u, err := ParseURL(req.Target)
	if err != nil {
		NewResponse(400, []byte(err.Error())).Encode(conn)
		return false
	}
	if p.Authorize != nil {
		if err := p.Authorize(u.Host); err != nil {
			NewResponse(403, []byte(err.Error())).Encode(conn)
			return true
		}
	}
	if p.OnRequest != nil {
		p.OnRequest(u.HostPort())
	}
	if p.RoundTrip != nil {
		resp, err := p.RoundTrip(u, req)
		if err != nil {
			NewResponse(502, []byte(err.Error())).Encode(conn)
			return true
		}
		return resp.Encode(conn) == nil
	}
	dial := p.Dial
	if p.DialPlain != nil {
		dial = p.DialPlain
	}
	upstream, err := dial(u.HostPort())
	if err != nil {
		NewResponse(502, []byte(fmt.Sprintf("dial %s: %v", u.HostPort(), err))).Encode(conn)
		return true
	}
	defer upstream.Close()

	// Rewrite to origin-form.
	originReq := &Request{
		Method: req.Method,
		Target: u.Path,
		Host:   u.Host,
		Header: req.Header,
		Body:   req.Body,
	}
	cc := NewClientConn(upstream)
	resp, err := cc.RoundTrip(originReq)
	if err != nil {
		NewResponse(502, []byte(err.Error())).Encode(conn)
		return true
	}
	return resp.Encode(conn) == nil
}

// Relay copies bytes in both directions until either side closes, then
// closes both. It returns when the a→b direction ends; the b→a copy
// finishes on its own goroutine.
func Relay(spawn netx.Spawner, a, b net.Conn) {
	spawn.Go(func() {
		netx.Copy(a, b)
		a.Close()
		b.Close()
	})
	netx.Copy(b, a)
	a.Close()
	b.Close()
}
