// The DNS-tunnel carrier: mux frames chunked into DNS query/response
// records through ordinary recursive resolvers. Upstream bytes ride as
// base32 labels of TXT queries for an innocuous domain (~150-byte MTU);
// downstream bytes come back as raw TXT RDATA (~1.1 KB MTU). The
// protocol is lock-step half-duplex — one outstanding exchange per
// connection, retransmitted on timeout while rotating through the
// resolver pool — which keeps it correct over unreliable datagrams at
// the cost of being the slowest rung of the ladder. The censor sees only
// well-formed queries for a name nobody blacklists, on a port it cannot
// afford to close.
package carrier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"scholarcloud/internal/dnssim"
	"scholarcloud/internal/mux"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
)

// Tunnel frame layout: queries carry connID(4) seq(2) flags(1) data;
// responses carry seq(2) flags(1) data inside TXT RDATA.
const (
	tunnelHeaderLen     = 7
	tunnelRespHeaderLen = 3

	tunnelSYN byte = 1 << 0 // first frame: establish conn, dial backend
	tunnelFIN byte = 1 << 1 // client is done

	tunnelRespMore byte = 1 << 0 // server has more downstream data queued
	tunnelRespFIN  byte = 1 << 1 // backend closed
	tunnelRespErr  byte = 1 << 2 // unknown conn or backend failure
)

// Tunnel protocol defaults.
const (
	// DefaultTunnelPoll paces empty polls that give the server a channel
	// to push downstream data.
	DefaultTunnelPoll = 250 * time.Millisecond
	// DefaultTunnelRespTimeout bounds one query/response exchange before
	// the client retransmits via the next resolver.
	DefaultTunnelRespTimeout = 2 * time.Second
	// DefaultTunnelRetries is the retransmit budget per exchange.
	DefaultTunnelRetries = 5
	// DefaultTunnelDownMTU bounds downstream TXT RDATA so the whole
	// response fits a conventional-size datagram.
	DefaultTunnelDownMTU = 1100
)

// ErrTunnelDown reports an exchange that exhausted its retransmit budget.
var ErrTunnelDown = errors.New("carrier: dns tunnel unresponsive")

// TunnelConfig configures the client side of the DNS tunnel.
type TunnelConfig struct {
	Env netx.Env
	// Dialer opens the client's UDP sockets toward the resolvers.
	Dialer netx.Dialer
	// Resolvers is the pool of recursive resolvers ("ip:53") queries
	// rotate through.
	Resolvers []string
	// Domain is the innocuous tunnel zone.
	Domain string
	// Wrap layers the blinded mux session onto tunnel connections.
	Wrap WrapFunc
	// Seed derives connection IDs deterministically.
	Seed uint64
	// PollInterval, RespTimeout, Retries, and DownMTU default to the
	// DefaultTunnel* constants when zero.
	PollInterval time.Duration
	RespTimeout  time.Duration
	Retries      int
	DownMTU      int
}

// Tunnel is the client-side DNS-tunnel Transport.
type Tunnel struct {
	cfg   TunnelConfig
	upMTU int

	mu    sync.Mutex
	conns uint64

	queries     obs.Counter
	retransmits obs.Counter
}

// NewTunnel builds the tunnel transport. It panics on an empty resolver
// pool or a domain too long to carry any payload.
func NewTunnel(cfg TunnelConfig) *Tunnel {
	if len(cfg.Resolvers) == 0 {
		panic("carrier: dns tunnel needs at least one resolver")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultTunnelPoll
	}
	if cfg.RespTimeout <= 0 {
		cfg.RespTimeout = DefaultTunnelRespTimeout
	}
	if cfg.Retries <= 0 {
		cfg.Retries = DefaultTunnelRetries
	}
	if cfg.DownMTU <= 0 {
		cfg.DownMTU = DefaultTunnelDownMTU
	}
	up := dnssim.MaxTunnelPayload(cfg.Domain) - tunnelHeaderLen
	if up < 16 {
		panic(fmt.Sprintf("carrier: tunnel domain %q leaves a %d-byte MTU", cfg.Domain, up))
	}
	return &Tunnel{cfg: cfg, upMTU: up}
}

// Name implements Transport.
func (t *Tunnel) Name() string { return DNSTunnel }

// Wrap implements Transport.
func (t *Tunnel) Wrap(raw net.Conn) *mux.Session { return t.cfg.Wrap(raw) }

// UpMTU reports the per-query payload capacity under the tunnel domain.
func (t *Tunnel) UpMTU() int { return t.upMTU }

// Instrument registers the tunnel's client-side counters.
func (t *Tunnel) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("carrier.tunnel.queries", &t.queries)
	reg.RegisterCounter("carrier.tunnel.retransmits", &t.retransmits)
}

// Dial implements Transport: it establishes a tunnel connection with a
// SYN exchange and starts the downstream poll loop.
func (t *Tunnel) Dial() (net.Conn, error) {
	t.mu.Lock()
	t.conns++
	id := uint32(splitmix(t.cfg.Seed^0xD4157, t.conns))
	t.mu.Unlock()

	c := &tunnelConn{t: t, connID: id}
	c.cond = t.cfg.Env.Sync.NewCond(&c.mu)
	if err := c.exchange(tunnelSYN, nil); err != nil {
		return nil, err
	}
	t.cfg.Env.Spawn.Go(c.pollLoop)
	return c, nil
}

// tunnelConn is one lock-step tunnel connection. It implements net.Conn.
type tunnelConn struct {
	t      *Tunnel
	connID uint32

	// seq, qid, and rot belong to the busy-holder: the protocol allows
	// one outstanding exchange per connection, serialized below via the
	// busy flag (a plain mutex must never be held across the managed
	// blocking inside an exchange).
	seq uint16
	qid uint16
	rot int

	mu           sync.Mutex
	cond         netx.Cond
	busy         bool
	readBuf      []byte
	more         bool
	err          error
	closed       bool
	remoteClosed bool
	deadline     time.Time
	ddTimer      netx.Timer
}

// exchange performs one lock-step query/response round trip (plus any
// immediate follow-up polls while the server reports queued data),
// retransmitting through the resolver pool on loss.
func (c *tunnelConn) exchange(flags byte, data []byte) error {
	c.mu.Lock()
	for c.busy && c.err == nil {
		c.cond.Wait()
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.busy = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.busy = false
		c.cond.Broadcast()
		c.mu.Unlock()
	}()

	if err := c.roundTrip(flags, data); err != nil {
		return err
	}
	// Drain queued downstream data without waiting for the next poll
	// tick: the server's "more" bit invites an immediate empty poll.
	for c.pendingMore() {
		if err := c.roundTrip(0, nil); err != nil {
			return err
		}
	}
	return nil
}

func (c *tunnelConn) pendingMore() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.more && c.err == nil && !c.closed
}

func (c *tunnelConn) roundTrip(flags byte, data []byte) error {
	c.seq++
	payload := make([]byte, tunnelHeaderLen, tunnelHeaderLen+len(data))
	binary.BigEndian.PutUint32(payload[0:], c.connID)
	binary.BigEndian.PutUint16(payload[4:], c.seq)
	payload[6] = flags
	payload = append(payload, data...)

	for attempt := 0; attempt < c.t.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.t.retransmits.Inc()
		}
		resolver := c.t.cfg.Resolvers[c.rot%len(c.t.cfg.Resolvers)]
		c.rot++
		resp, err := c.query(resolver, payload)
		if err != nil {
			continue
		}
		if len(resp) < tunnelRespHeaderLen {
			continue
		}
		rseq := binary.BigEndian.Uint16(resp[0:])
		rflags := resp[2]
		if rseq != c.seq {
			continue // stale retransmit answer
		}
		if rflags&tunnelRespErr != 0 {
			err := fmt.Errorf("carrier: tunnel conn %08x rejected by server", c.connID)
			c.fail(err)
			return err
		}
		c.deliver(resp[tunnelRespHeaderLen:], rflags)
		return nil
	}
	err := fmt.Errorf("%w (conn %08x seq %d)", ErrTunnelDown, c.connID, c.seq)
	c.fail(err)
	return err
}

// query performs one DNS round trip via one resolver. Every attempt uses
// a fresh socket, so late answers to earlier attempts die with their
// ports.
func (c *tunnelConn) query(resolver string, payload []byte) ([]byte, error) {
	c.qid++
	qname, err := dnssim.EncodeTunnelName(payload, c.t.cfg.Domain)
	if err != nil {
		return nil, err
	}
	msg := &dnssim.Message{ID: c.qid, Question: dnssim.Question{Name: qname, Type: dnssim.TypeTXT}}
	wire, err := msg.Marshal()
	if err != nil {
		return nil, err
	}
	conn, err := c.t.cfg.Dialer.Dial("udp", resolver)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	c.t.queries.Inc()
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	env := c.t.cfg.Env
	conn.SetReadDeadline(env.Clock.Now().Add(c.t.cfg.RespTimeout))
	buf := make([]byte, 2048)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		resp, err := dnssim.Unmarshal(buf[:n])
		if err != nil || !resp.Response || resp.ID != c.qid {
			continue
		}
		for _, rr := range resp.Answers {
			if rr.Type == dnssim.TypeTXT {
				return rr.Raw, nil
			}
		}
		return nil, fmt.Errorf("carrier: tunnel answer without TXT record")
	}
}

func (c *tunnelConn) deliver(data []byte, rflags byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(data) > 0 {
		c.readBuf = append(c.readBuf, data...)
	}
	c.more = rflags&tunnelRespMore != 0
	if rflags&tunnelRespFIN != 0 {
		c.remoteClosed = true
	}
	c.cond.Broadcast()
}

// pollLoop gives the server a downstream channel: with no upstream
// traffic, periodic empty queries pick up whatever the backend sent.
func (c *tunnelConn) pollLoop() {
	for {
		c.t.cfg.Env.Clock.Sleep(c.t.cfg.PollInterval)
		c.mu.Lock()
		stop := c.closed || c.err != nil || c.remoteClosed
		c.mu.Unlock()
		if stop {
			return
		}
		if c.exchange(0, nil) != nil {
			return
		}
	}
}

func (c *tunnelConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Read implements net.Conn.
func (c *tunnelConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.readBuf) > 0 {
			n := copy(b, c.readBuf)
			c.readBuf = c.readBuf[n:]
			if len(c.readBuf) == 0 {
				c.readBuf = nil
			}
			return n, nil
		}
		if c.err != nil {
			return 0, c.err
		}
		if c.closed {
			return 0, net.ErrClosed
		}
		if c.remoteClosed {
			return 0, io.EOF
		}
		if !c.deadline.IsZero() && !c.t.cfg.Env.Clock.Now().Before(c.deadline) {
			return 0, &DialError{Transport: DNSTunnel}
		}
		c.cond.Wait()
	}
}

// Write implements net.Conn, chunking at the tunnel's upstream MTU.
func (c *tunnelConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.mu.Unlock()

	total := 0
	for len(b) > 0 {
		n := len(b)
		if n > c.t.upMTU {
			n = c.t.upMTU
		}
		if err := c.exchange(0, b[:n]); err != nil {
			return total, err
		}
		b = b[n:]
		total += n
	}
	return total, nil
}

// Close implements net.Conn. The FIN exchange is best-effort: if the
// tunnel is already dead the server state ages out with the world.
func (c *tunnelConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	dead := c.err != nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if !dead {
		c.exchange(tunnelFIN, nil)
	}
	return nil
}

// LocalAddr implements net.Conn.
func (c *tunnelConn) LocalAddr() net.Addr { return tunnelAddr{c.connID} }

// RemoteAddr implements net.Conn.
func (c *tunnelConn) RemoteAddr() net.Addr { return tunnelAddr{c.connID} }

// SetDeadline implements net.Conn (read side; writes block only on the
// lock-step exchange, which has its own retransmit budget).
func (c *tunnelConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *tunnelConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = t
	if c.ddTimer != nil {
		c.ddTimer.Stop()
		c.ddTimer = nil
	}
	if !t.IsZero() {
		d := t.Sub(c.t.cfg.Env.Clock.Now())
		c.ddTimer = c.t.cfg.Env.Clock.AfterFunc(d, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
	}
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *tunnelConn) SetWriteDeadline(time.Time) error { return nil }

// WriteBlocksManaged tells mux that Write runs whole DNS round trips
// under the virtual clock, so frame writes must be serialized with a
// managed token rather than an OS mutex (see mux.managedWriteConn).
func (c *tunnelConn) WriteBlocksManaged() bool { return true }

type tunnelAddr struct{ id uint32 }

func (a tunnelAddr) Network() string { return "dns-tunnel" }
func (a tunnelAddr) String() string  { return fmt.Sprintf("tunnel-%08x", a.id) }

// --- Server side -----------------------------------------------------------

// TunnelServerConfig configures the authoritative tunnel endpoint.
type TunnelServerConfig struct {
	Env netx.Env
	// Domain is the tunnel zone this server answers for.
	Domain string
	// Backend dials the upstream the decoded byte stream is piped to
	// (the remote proxy's carrier port).
	Backend func() (net.Conn, error)
	// DownMTU bounds downstream TXT RDATA (DefaultTunnelDownMTU when
	// zero).
	DownMTU int
}

// TunnelServer terminates the DNS tunnel: it decodes query names back
// into the upstream byte stream, pipes it to the backend, and returns
// downstream bytes as TXT answers.
type TunnelServer struct {
	cfg TunnelServerConfig

	mu    sync.Mutex
	conns map[uint32]*tunnelState
}

type tunnelState struct {
	mu       sync.Mutex
	backend  net.Conn
	lastSeq  uint16
	lastResp []byte
	buf      []byte
	eof      bool
	failed   bool
}

// NewTunnelServer builds the server.
func NewTunnelServer(cfg TunnelServerConfig) *TunnelServer {
	if cfg.DownMTU <= 0 {
		cfg.DownMTU = DefaultTunnelDownMTU
	}
	return &TunnelServer{cfg: cfg, conns: make(map[uint32]*tunnelState)}
}

// Serve answers tunnel queries on pc until pc closes. Run it on a
// managed goroutine. Queries are handled concurrently so one client's
// backend dial never stalls another's exchange.
func (s *TunnelServer) Serve(pc net.PacketConn) {
	buf := make([]byte, 2048)
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		wire := append([]byte(nil), buf[:n]...)
		s.cfg.Env.Spawn.Go(func() {
			if resp := s.handleQuery(wire); resp != nil {
				pc.WriteTo(resp, addr)
			}
		})
	}
}

func (s *TunnelServer) handleQuery(wire []byte) []byte {
	q, err := dnssim.Unmarshal(wire)
	if err != nil || q.Response || q.Question.Type != dnssim.TypeTXT {
		return nil
	}
	payload, err := dnssim.DecodeTunnelName(q.Question.Name, s.cfg.Domain)
	if err != nil || len(payload) < tunnelHeaderLen {
		return nil
	}
	raw := s.handleFrame(payload)
	resp := &dnssim.Message{
		ID:       q.ID,
		Response: true,
		Question: q.Question,
		Answers: []dnssim.RR{
			// The short zone name keeps the whole answer inside a
			// conventional datagram even at full downstream MTU.
			{Name: s.cfg.Domain, Type: dnssim.TypeTXT, TTL: 0, Raw: raw},
		},
	}
	out, err := resp.Marshal()
	if err != nil {
		return nil
	}
	return out
}

func respHeader(seq uint16, flags byte) []byte {
	h := make([]byte, tunnelRespHeaderLen)
	binary.BigEndian.PutUint16(h[0:], seq)
	h[2] = flags
	return h
}

func (s *TunnelServer) handleFrame(payload []byte) []byte {
	connID := binary.BigEndian.Uint32(payload[0:])
	seq := binary.BigEndian.Uint16(payload[4:])
	flags := payload[6]
	data := payload[tunnelHeaderLen:]

	s.mu.Lock()
	st := s.conns[connID]
	if st == nil {
		if flags&tunnelSYN == 0 {
			s.mu.Unlock()
			return respHeader(seq, tunnelRespErr)
		}
		// Register before dialing so a retransmitted SYN replays the
		// cached answer instead of opening a second backend.
		st = &tunnelState{lastSeq: seq, lastResp: respHeader(seq, 0)}
		s.conns[connID] = st
		s.mu.Unlock()
		backend, err := s.cfg.Backend()
		st.mu.Lock()
		if err != nil {
			st.failed = true
			st.mu.Unlock()
			return respHeader(seq, tunnelRespErr)
		}
		st.backend = backend
		st.mu.Unlock()
		s.readBackend(st, backend)
		return respHeader(seq, 0)
	}
	s.mu.Unlock()

	st.mu.Lock()
	if st.failed {
		st.mu.Unlock()
		return respHeader(seq, tunnelRespErr)
	}
	if seq == st.lastSeq {
		resp := st.lastResp
		st.mu.Unlock()
		return resp // retransmit: replay the cached answer
	}
	if seq != st.lastSeq+1 {
		st.mu.Unlock()
		return respHeader(seq, tunnelRespErr)
	}
	st.lastSeq = seq
	backend := st.backend

	if flags&tunnelFIN != 0 {
		resp := respHeader(seq, tunnelRespFIN)
		st.lastResp = resp
		st.mu.Unlock()
		s.mu.Lock()
		delete(s.conns, connID)
		s.mu.Unlock()
		if backend != nil {
			backend.Close()
		}
		return resp
	}

	// Assemble the downstream slice and cache it before touching the
	// backend, so a racing retransmit replays a consistent answer.
	n := len(st.buf)
	if n > s.cfg.DownMTU {
		n = s.cfg.DownMTU
	}
	var rflags byte
	if len(st.buf) > n {
		rflags |= tunnelRespMore
	}
	if st.eof && len(st.buf) == n {
		rflags |= tunnelRespFIN
	}
	resp := append(respHeader(seq, rflags), st.buf[:n]...)
	st.buf = st.buf[n:]
	if len(st.buf) == 0 {
		st.buf = nil
	}
	st.lastResp = resp
	st.mu.Unlock()

	if len(data) > 0 && backend != nil {
		if _, err := backend.Write(data); err != nil {
			st.mu.Lock()
			st.eof = true
			st.mu.Unlock()
		}
	}
	return resp
}

// readBackend pumps downstream bytes into the per-connection buffer.
func (s *TunnelServer) readBackend(st *tunnelState, backend net.Conn) {
	s.cfg.Env.Spawn.Go(func() {
		buf := make([]byte, 4096)
		for {
			n, err := backend.Read(buf)
			st.mu.Lock()
			if n > 0 {
				st.buf = append(st.buf, buf[:n]...)
			}
			if err != nil {
				st.eof = true
				st.mu.Unlock()
				return
			}
			st.mu.Unlock()
		}
	})
}

// ServeRelay runs a recursive resolver reduced to the only behavior the
// tunnel needs: forward each query datagram upstream, relay the answer
// back. Run it on a managed goroutine; it returns when pc closes.
func ServeRelay(env netx.Env, pc net.PacketConn, dial netx.Dialer, upstream string, timeout time.Duration) {
	buf := make([]byte, 2048)
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		q := append([]byte(nil), buf[:n]...)
		env.Spawn.Go(func() {
			uc, err := dial.Dial("udp", upstream)
			if err != nil {
				return
			}
			defer uc.Close()
			if _, err := uc.Write(q); err != nil {
				return
			}
			uc.SetReadDeadline(env.Clock.Now().Add(timeout))
			resp := make([]byte, 2048)
			rn, err := uc.Read(resp)
			if err != nil {
				return
			}
			pc.WriteTo(resp[:rn], addr)
		})
	}
}

// splitmix is the deterministic draw used for connection IDs and
// endpoint picks (splitmix64 over seed and a sequence number).
func splitmix(seed, n uint64) uint64 {
	x := seed ^ (n * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
