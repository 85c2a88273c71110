package netsim

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"scholarcloud/internal/vclock"
)

// Host is a machine attached to the simulated internet. It implements
// netx.Network, so protocol code dials and listens through it exactly as
// it would through the operating system.
type Host struct {
	n      *Network
	name   string
	ip     string
	zone   *Zone
	access LinkConfig

	accessUp   dirState
	accessDown dirState

	mu        sync.Mutex
	tcpConns  map[tcpKey]*Conn
	listeners map[int]*Listener
	udpConns  map[int]*PacketConn
	nextPort  int

	// Single-core CPU model: work is serialized FIFO, so a saturated
	// server exhibits queueing delay (the mechanism behind the paper's
	// scalability experiment, Fig. 7).
	cpuFree time.Duration
	cpuCond *vclock.Cond
	// bgUtil is analytic CPU utilization imposed by flow-level client
	// cohorts; sampled packet-level work is stretched by 1/(1−bgUtil),
	// the processor-sharing response-time inflation.
	bgUtil float64

	statsMu sync.Mutex
	stats   HostStats
}

type tcpKey struct {
	localPort  int
	remoteIP   string
	remotePort int
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// IP returns the host's address.
func (h *Host) IP() string { return h.ip }

// Network returns the simulated internet this host is attached to.
func (h *Host) Network() *Network { return h.n }

// Stats returns a snapshot of the host's NIC counters.
func (h *Host) Stats() HostStats {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	return h.stats
}

// ResetStats zeroes the host's NIC counters.
func (h *Host) ResetStats() {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	h.stats = HostStats{}
}

// Compute consumes d of CPU time on the host's single core. Concurrent
// callers are serialized, so a busy host queues work. It must be called
// from a managed goroutine.
func (h *Host) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	h.statsMu.Lock()
	h.stats.CPUBusy += d
	h.statsMu.Unlock()
	now := h.n.sched.Elapsed()
	h.mu.Lock()
	if h.bgUtil > 0 {
		d = time.Duration(float64(d) / (1 - h.bgUtil))
	}
	start := now
	if h.cpuFree > start {
		start = h.cpuFree
	}
	h.cpuFree = start + d
	wait := h.cpuFree - now
	h.mu.Unlock()
	h.n.sched.Sleep(wait)
}

// SetBackgroundUtilization imposes analytic CPU load from flow-level
// client cohorts: every subsequent Compute(d) costs d/(1−u), the M/M/1
// processor-sharing inflation a sampled request experiences on a core
// that is busy fraction u of the time with fluid work. u is clamped to
// [0, 0.99]; saturation (u ≥ 1) is the flow harness's to detect and
// report before it configures the host.
func (h *Host) SetBackgroundUtilization(u float64) {
	if u < 0 {
		u = 0
	}
	if u > 0.99 {
		u = 0.99
	}
	h.mu.Lock()
	h.bgUtil = u
	h.mu.Unlock()
}

func (h *Host) allocPort() int {
	// Caller holds h.mu.
	for {
		h.nextPort++
		if h.nextPort > 65000 {
			h.nextPort = 40001
		}
		p := h.nextPort
		if _, ok := h.listeners[p]; ok {
			continue
		}
		if _, ok := h.udpConns[p]; ok {
			continue
		}
		return p
	}
}

// dispatch delivers a packet that has fully traversed the network.
func (h *Host) dispatch(pkt *Packet) {
	h.statsMu.Lock()
	h.stats.RxPackets++
	h.stats.RxBytes += int64(pkt.Wire)
	h.statsMu.Unlock()

	switch pkt.Proto {
	case ProtoUDP:
		h.mu.Lock()
		pc := h.udpConns[pkt.Dst.Port]
		h.mu.Unlock()
		if pc != nil {
			// deliver retains the struct until ReadFrom (or Close)
			// consumes it; the datagram queue owns it from here.
			pc.deliver(pkt)
		} else {
			h.n.releasePacket(pkt)
		}
	case ProtoTCP:
		key := tcpKey{pkt.Dst.Port, pkt.Src.IP, pkt.Src.Port}
		h.mu.Lock()
		conn := h.tcpConns[key]
		var ln *Listener
		if conn == nil {
			ln = h.listeners[pkt.Dst.Port]
		}
		h.mu.Unlock()
		switch {
		case conn != nil:
			conn.handlePacket(pkt)
		case ln != nil && pkt.SYN && !pkt.ACK:
			ln.handleSYN(pkt)
		case pkt.RST:
			// No connection; nothing to reset.
		default:
			// Closed port: refuse.
			h.sendRaw(h.n.NewPacket(Packet{
				Proto: ProtoTCP,
				Src:   AddrPort{h.ip, pkt.Dst.Port},
				Dst:   pkt.Src,
				RST:   true,
				Seq:   pkt.AckNum,
				Wire:  tcpHeaderSize,
			}))
		}
		// TCP handlers copy what they keep (payload slices at most);
		// the struct's journey ends here.
		h.n.releasePacket(pkt)
	}
}

func (h *Host) sendRaw(pkt *Packet) { h.n.sendFrom(h, pkt) }

// Dial implements netx.Network. Supported networks: "tcp", "udp".
func (h *Host) Dial(network, address string) (net.Conn, error) {
	switch network {
	case "tcp":
		return h.DialTCP(address)
	case "udp":
		return h.DialUDP(address)
	default:
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
}

// Listen implements netx.Network. Only "tcp" is supported; use
// ListenPacket for datagrams.
func (h *Host) Listen(network, address string) (net.Listener, error) {
	if network != "tcp" {
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
	_, port, err := splitHostPort(address)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.listeners[port]; ok {
		return nil, fmt.Errorf("netsim: port %d already in use on %s", port, h.name)
	}
	ln := &Listener{host: h, port: port}
	ln.cond = vclock.NewCond(h.n.sched, &ln.mu)
	h.listeners[port] = ln
	return ln, nil
}

func splitHostPort(address string) (string, int, error) {
	i := strings.LastIndexByte(address, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("netsim: address %q missing port", address)
	}
	port, err := strconv.Atoi(address[i+1:])
	if err != nil || port <= 0 || port > 65535 {
		return "", 0, fmt.Errorf("netsim: bad port in address %q", address)
	}
	return address[:i], port, nil
}
