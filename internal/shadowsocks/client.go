package shadowsocks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"scholarcloud/internal/netx"
	"scholarcloud/internal/socks"
)

// DefaultKeepAlive is the session keep-alive the paper found at source
// level: if no request passes for 10 seconds, the client re-runs the
// authentication procedure (§4.3).
const DefaultKeepAlive = 10 * time.Second

// Client is the Shadowsocks proxy client (the per-device component).
// It implements tunnel.Method.
type Client struct {
	Env netx.Env
	// Dial opens raw connections from the client device.
	Dial func(network, address string) (net.Conn, error)
	// Server is the remote proxy "ip:port".
	Server   string
	Password string
	// Credential is the "user:password" sent on the per-session
	// authentication connection (TCP-1 in the paper's Fig. 4).
	Credential string
	// KeepAlive overrides DefaultKeepAlive when positive.
	KeepAlive time.Duration

	key []byte

	mu            sync.Mutex
	authenticated bool
	lastUse       time.Time
	authConns     int64
	dataConns     int64
}

// ClientStats counts the client's connection activity.
type ClientStats struct {
	AuthConns int64
	DataConns int64
}

// Stats returns a snapshot of connection counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{AuthConns: c.authConns, DataConns: c.dataConns}
}

// Name implements tunnel.Method.
func (c *Client) Name() string { return "shadowsocks" }

// Close implements tunnel.Method.
func (c *Client) Close() error { return nil }

func (c *Client) keepAlive() time.Duration {
	if c.KeepAlive > 0 {
		return c.KeepAlive
	}
	return DefaultKeepAlive
}

// ensureSession runs the user/password authentication connection if the
// session is fresh or has idled past the keep-alive.
func (c *Client) ensureSession() error {
	now := c.Env.Clock.Now()
	c.mu.Lock()
	if c.key == nil {
		c.key = Key(c.Password)
	}
	if c.authenticated && now.Sub(c.lastUse) <= c.keepAlive() {
		c.mu.Unlock()
		return nil
	}
	c.authConns++
	c.mu.Unlock()

	conn, err := c.Dial("tcp", c.Server)
	if err != nil {
		return fmt.Errorf("shadowsocks: auth dial: %w", err)
	}
	defer conn.Close()
	sc := newStreamConn(conn, c.key, c.Env.Entropy())

	cred := c.Credential
	if cred == "" {
		cred = "user:" + c.Password
	}
	header := make([]byte, 0, 2+len(cred))
	header = append(header, atypAuth, byte(len(cred)))
	header = append(header, cred...)
	if _, err := sc.Write(header); err != nil {
		return fmt.Errorf("shadowsocks: auth write: %w", err)
	}
	reply := make([]byte, 2)
	if _, err := io.ReadFull(sc, reply); err != nil {
		return fmt.Errorf("shadowsocks: auth read: %w", err)
	}
	if string(reply) != "OK" {
		return errors.New("shadowsocks: authentication rejected")
	}
	c.mu.Lock()
	c.authenticated = true
	c.lastUse = c.Env.Clock.Now()
	c.mu.Unlock()
	return nil
}

// DialHost implements tunnel.Method: authenticate the session if needed,
// then open an encrypted connection carrying the target address header.
// Name resolution happens at the remote proxy.
func (c *Client) DialHost(host string, port int) (net.Conn, error) {
	if err := c.ensureSession(); err != nil {
		return nil, err
	}
	conn, err := c.Dial("tcp", c.Server)
	if err != nil {
		return nil, fmt.Errorf("shadowsocks: dial: %w", err)
	}
	sc := newStreamConn(conn, c.key, c.Env.Entropy())

	header := make([]byte, 0, 4+len(host))
	if ip := net.ParseIP(host); ip != nil && ip.To4() != nil {
		header = append(header, atypIPv4)
		header = append(header, ip.To4()...)
	} else {
		if len(host) > 255 {
			conn.Close()
			return nil, fmt.Errorf("shadowsocks: hostname too long")
		}
		header = append(header, atypDomain, byte(len(host)))
		header = append(header, host...)
	}
	header = binary.BigEndian.AppendUint16(header, uint16(port))
	if _, err := sc.Write(header); err != nil {
		conn.Close()
		return nil, fmt.Errorf("shadowsocks: header write: %w", err)
	}
	c.mu.Lock()
	c.dataConns++
	c.lastUse = c.Env.Clock.Now()
	c.mu.Unlock()
	return sc, nil
}

// LocalProxy is the SOCKS5 front end real browsers configure
// ("127.0.0.1:1080"); it forwards every CONNECT through the Client. The
// simulated browser uses the Client directly (the localhost hop is
// negligible); cmd/ uses LocalProxy for real deployments.
type LocalProxy struct {
	Client *Client
	Env    netx.Env
}

// Serve accepts SOCKS5 clients from ln.
func (p *LocalProxy) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.Env.Spawn.Go(func() { p.handle(conn) })
	}
}

func (p *LocalProxy) handle(conn net.Conn) {
	defer conn.Close()
	target, err := socks.ReadRequest(conn)
	if err != nil {
		return
	}
	host, portStr, ok := cutLast(target, ':')
	if !ok {
		socks.Deny(conn)
		return
	}
	port := 0
	for _, ch := range portStr {
		if ch < '0' || ch > '9' {
			socks.Deny(conn)
			return
		}
		port = port*10 + int(ch-'0')
	}
	upstream, err := p.Client.DialHost(host, port)
	if err != nil {
		socks.Deny(conn)
		return
	}
	defer upstream.Close()
	if err := socks.Grant(conn); err != nil {
		return
	}
	p.Env.Spawn.Go(func() {
		netx.Copy(conn, upstream)
		conn.Close()
		upstream.Close()
	})
	netx.Copy(upstream, conn)
}

func cutLast(s string, sep byte) (string, string, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == sep {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}
