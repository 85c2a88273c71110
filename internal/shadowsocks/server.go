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
)

// Address header types (SOCKS-style), plus the authentication marker for
// the paper's per-session user/password connection.
const (
	atypIPv4   = 0x01
	atypDomain = 0x03
	atypAuth   = 0xF0
)

// silentHoldTimeout is how long the server keeps an undecodable
// connection open while silently draining it — the probe-confirmable
// behaviour.
const silentHoldTimeout = 30 * time.Second

// Server is the remote Shadowsocks proxy.
type Server struct {
	Env netx.Env
	// DialHost reaches origins (the server resolves domain-form
	// addresses itself, outside the censored network).
	DialHost func(host string, port int) (net.Conn, error)
	Password string
	// Users are the accepted "user:password" credentials for the
	// session-authentication connection.
	Users map[string]bool
	// OnAuth, if set, runs for every authentication connection before it
	// is answered — experiments charge the server CPU here (password
	// verification and session setup are the expensive part of the
	// paper's Fig. 7 scalability story).
	OnAuth func()
	// OnRelay, if set, runs for every data connection before the origin
	// dial.
	OnRelay func()

	key []byte

	mu          sync.Mutex
	lns         []net.Listener
	auths       int64
	relays      int64
	silentHolds int64
}

// Stats reports server-side connection counts.
type Stats struct {
	AuthConns   int64
	Relays      int64
	SilentHolds int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{AuthConns: s.auths, Relays: s.relays, SilentHolds: s.silentHolds}
}

// Serve accepts encrypted client connections from ln.
func (s *Server) Serve(ln net.Listener) {
	if s.key == nil {
		s.key = Key(s.Password)
	}
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.Env.Spawn.Go(func() { s.handle(conn) })
	}
}

// Close shuts down the server's listeners.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ln := range s.lns {
		ln.Close()
	}
	s.lns = nil
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	sc := newStreamConn(conn, s.key, s.Env.Entropy())

	host, port, authUser, err := readHeader(sc)
	if err != nil {
		// Undecodable header: the documented vulnerability. Read and
		// discard silently; never answer; hold until idle timeout.
		s.mu.Lock()
		s.silentHolds++
		s.mu.Unlock()
		s.silentHold(conn)
		return
	}
	if authUser != "" {
		s.mu.Lock()
		s.auths++
		ok := s.Users == nil || s.Users[authUser]
		s.mu.Unlock()
		if s.OnAuth != nil {
			s.OnAuth()
		}
		if ok {
			sc.Write([]byte("OK"))
		}
		// Deny silently on bad credentials (no oracle for probes).
		return
	}

	if s.OnRelay != nil {
		s.OnRelay()
	}
	upstream, err := s.DialHost(host, port)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.relays++
	s.mu.Unlock()
	defer upstream.Close()
	s.Env.Spawn.Go(func() {
		netx.Copy(sc, upstream)
		conn.Close()
		upstream.Close()
	})
	netx.Copy(upstream, sc)
}

// silentHold drains conn without ever writing, for up to
// silentHoldTimeout of inactivity.
func (s *Server) silentHold(conn net.Conn) {
	buf := make([]byte, 2048)
	for {
		conn.SetReadDeadline(s.Env.Clock.Now().Add(silentHoldTimeout))
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// readHeader parses the decrypted address header. It returns either a
// target (host, port) or an authentication user string.
func readHeader(r io.Reader) (host string, port int, authUser string, err error) {
	var atyp [1]byte
	if _, err := io.ReadFull(r, atyp[:]); err != nil {
		return "", 0, "", err
	}
	switch atyp[0] {
	case atypIPv4:
		var b [6]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return "", 0, "", err
		}
		ip := net.IPv4(b[0], b[1], b[2], b[3]).String()
		return ip, int(binary.BigEndian.Uint16(b[4:])), "", nil
	case atypDomain:
		var l [1]byte
		if _, err := io.ReadFull(r, l[:]); err != nil {
			return "", 0, "", err
		}
		if l[0] == 0 {
			return "", 0, "", errors.New("shadowsocks: empty domain")
		}
		name := make([]byte, l[0])
		if _, err := io.ReadFull(r, name); err != nil {
			return "", 0, "", err
		}
		if !plausibleDomain(name) {
			return "", 0, "", fmt.Errorf("shadowsocks: implausible domain %q", name)
		}
		var p [2]byte
		if _, err := io.ReadFull(r, p[:]); err != nil {
			return "", 0, "", err
		}
		return string(name), int(binary.BigEndian.Uint16(p[:])), "", nil
	case atypAuth:
		var l [1]byte
		if _, err := io.ReadFull(r, l[:]); err != nil {
			return "", 0, "", err
		}
		cred := make([]byte, l[0])
		if _, err := io.ReadFull(r, cred); err != nil {
			return "", 0, "", err
		}
		return "", 0, string(cred), nil
	default:
		return "", 0, "", fmt.Errorf("shadowsocks: bad address type %#x", atyp[0])
	}
}

// plausibleDomain rejects decrypted garbage that happened to hit the
// domain branch: real targets are printable hostnames.
func plausibleDomain(b []byte) bool {
	for _, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}
