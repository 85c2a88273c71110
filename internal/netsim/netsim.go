// Package netsim implements a deterministic, packet-level internet
// simulator used as the measurement substrate for the reproduction.
//
// The simulated world is a graph of zones (autonomous networks such as
// CERNET, the Chinese commodity internet, and the US west coast) joined by
// links with one-way propagation delay, finite bandwidth with FIFO
// store-and-forward queueing, and a base random-loss rate. Hosts attach to
// a zone through an access link. A link may carry an Inspector — the Great
// Firewall in this repository — which observes every packet crossing it
// and can pass, drop, or reset the flow, and can inject forged packets
// (RSTs, poisoned DNS answers) of its own.
//
// On top of the packet layer, netsim provides a TCP-like reliable byte
// stream implementing net.Conn (three-way handshake, sliding window,
// retransmission timeouts, fast retransmit, FIN/RST teardown) and a UDP-
// like datagram service. Packet loss therefore affects connection latency
// exactly the way the paper measures it: through retransmissions and
// stalls, not through an abstract penalty.
//
// Everything runs on a vclock.Scheduler, so experiments that simulate a
// full day of page loads complete in milliseconds of wall time and are
// reproducible run to run.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/vclock"
)

// Protocol numbers for Packet.Proto.
const (
	ProtoTCP = "tcp"
	ProtoUDP = "udp"
)

// Header sizes charged to the wire, in bytes.
const (
	tcpHeaderSize = 40 // IP + TCP
	udpHeaderSize = 28 // IP + UDP
)

// MSS is the maximum TCP segment payload carried by one packet.
const MSS = 1400

// AddrPort identifies one end of a flow.
type AddrPort struct {
	IP   string
	Port int
}

// String formats the endpoint as "ip:port".
func (a AddrPort) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// Addr adapts an AddrPort to net.Addr.
type Addr struct {
	Net string
	AP  AddrPort
}

// Network implements net.Addr.
func (a Addr) Network() string { return a.Net }

// String implements net.Addr.
func (a Addr) String() string { return a.AP.String() }

// Packet is the unit of transmission. TCP control fields are only
// meaningful when Proto is ProtoTCP.
type Packet struct {
	ID    uint64
	Proto string
	Src   AddrPort
	Dst   AddrPort

	SYN, ACK, FIN, RST bool
	Seq, AckNum        uint32

	Payload []byte
	Wire    int // bytes on the wire including headers

	// Injected marks packets forged by an inspector (GFW RSTs, poisoned
	// DNS answers) so endpoint counters can distinguish them.
	Injected bool
}

// FlowKey returns a direction-independent identity for the packet's flow.
func (p *Packet) FlowKey() FlowKey {
	a := flowEnd{p.Src.IP, p.Src.Port}
	b := flowEnd{p.Dst.IP, p.Dst.Port}
	if b.less(a) {
		a, b = b, a
	}
	return FlowKey{Proto: p.Proto, A: a, B: b}
}

type flowEnd struct {
	IP   string
	Port int
}

func (e flowEnd) less(o flowEnd) bool {
	if e.IP != o.IP {
		return e.IP < o.IP
	}
	return e.Port < o.Port
}

// FlowKey identifies a bidirectional flow.
type FlowKey struct {
	Proto string
	A, B  flowEnd
}

// Verdict is an Inspector's decision about a packet.
type Verdict int

// Inspector verdicts.
const (
	// VerdictPass forwards the packet unchanged.
	VerdictPass Verdict = iota
	// VerdictDrop silently discards the packet.
	VerdictDrop
	// VerdictReset discards the packet and injects TCP RSTs toward both
	// endpoints (the GFW's classic connection-reset behaviour).
	VerdictReset
)

// Inspector observes packets crossing a link. Inspect runs on the
// simulator's driver goroutine and must not block; side effects that need
// to block (active probing) should be started with Network.Clock().
type Inspector interface {
	Inspect(pkt *Packet) Verdict
}

// LinkConfig describes one link's characteristics. Bandwidth of zero means
// infinite (no serialization delay, no queueing).
type LinkConfig struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Bandwidth is the per-direction capacity in bytes per second.
	Bandwidth float64
	// MaxQueue is the maximum queueing delay before tail drop.
	// Zero means a default of 500ms.
	MaxQueue time.Duration
	// BaseLoss is the probability a packet is lost on this link for
	// reasons unrelated to censorship (congestion on the real path).
	BaseLoss float64
	// Jitter adds a deterministic pseudo-random [0,Jitter) component to
	// each packet's propagation delay, modeling queueing variance along
	// the real path. Mild reordering under jitter is handled by the
	// transport (out-of-order buffer), as on real networks.
	Jitter time.Duration
}

func (c LinkConfig) maxQueue() time.Duration {
	if c.MaxQueue <= 0 {
		return 500 * time.Millisecond
	}
	return c.MaxQueue
}

// Zone is a region of the simulated internet.
type Zone struct {
	name  string
	links []*link
}

// Name returns the zone's name.
func (z *Zone) Name() string { return z.name }

type link struct {
	zones     [2]*Zone
	cfg       LinkConfig
	inspector Inspector
	dir       [2]dirState // dir[0]: zones[0]->zones[1]
	stats     LinkStats   // guarded by Network.mu
}

// LinkStats counts traffic admitted onto a link (both directions,
// post-inspection, post-queue-admission; packets later lost to random
// loss are still counted as transmitted).
type LinkStats struct {
	Packets int64
	Bytes   int64
	// DirBytes splits Bytes by direction: DirBytes[0] is traffic in the
	// zones[0]→zones[1] direction of the original Connect call. The
	// flow-level harness uses the split to calibrate per-direction fluid
	// load (requests upstream, responses downstream).
	DirBytes [2]int64
}

type dirState struct {
	nextFree time.Duration // virtual time the transmitter becomes idle
	// bg is analytic background load (bytes/sec) imposed by flow-level
	// client cohorts. Sampled packet-level traffic serializes at the
	// link's residual bandwidth (capacity minus bg), which is how fluid
	// cohorts and real packets share a link without per-packet cost.
	bg float64
}

// minResidualFrac floors the residual bandwidth left to packet traffic
// under fluid load at 1% of the link's capacity, so an (over)saturating
// cohort slows sampled clients drastically but never divides by zero.
// Saturation itself is detected and reported analytically by the
// flow-level harness before it configures the load.
const minResidualFrac = 0.01

type hop struct {
	l      *link
	dirIdx int
}

// DropReason classifies why a packet was lost.
type DropReason int

// Drop reasons.
const (
	DropLoss DropReason = iota // random base loss
	DropQueue
	DropInspector
	DropNoRoute
	numDropReasons
)

// String names the reason for metrics and traces.
func (r DropReason) String() string {
	switch r {
	case DropLoss:
		return "loss"
	case DropQueue:
		return "queue"
	case DropInspector:
		return "inspector"
	case DropNoRoute:
		return "noroute"
	default:
		return "unknown"
	}
}

// HostStats are per-host packet and byte counters.
type HostStats struct {
	TxPackets    int64
	RxPackets    int64
	TxBytes      int64
	RxBytes      int64
	LostOutbound int64 // packets this host sent that the network dropped
	LostInbound  int64 // packets addressed to this host that were dropped
	// CPUBusy is total virtual CPU time consumed via Compute (before
	// background-utilization inflation): the per-request demand the
	// flow-level harness calibrates its fluid cohorts from.
	CPUBusy time.Duration
}

// LossRate returns the fraction of this host's packets (both directions)
// that the network dropped.
func (s HostStats) LossRate() float64 {
	lost := s.LostOutbound + s.LostInbound
	total := s.TxPackets + s.RxPackets + s.LostInbound
	if total == 0 {
		return 0
	}
	return float64(lost) / float64(total)
}

// Network is the simulated internet.
type Network struct {
	sched *vclock.Scheduler
	seed  uint64
	rand  *simRand

	mu    sync.Mutex
	zones map[string]*Zone
	hosts map[string]*Host // by IP
	paths map[[2]*Zone][]hop

	pktID atomic.Uint64

	// pktFree recycles Packet structs: every packet whose journey ends
	// inside the simulator (delivered, dropped, or read from a datagram
	// queue) returns here and is reused by the next NewPacket. A plain
	// freelist under mu — rather than a sync.Pool — keeps reuse
	// deterministic and keyed to the world, never to GC timing.
	pktFree []*Packet

	trace     atomic.Pointer[func(pkt *Packet)]
	flowTrace atomic.Pointer[obs.Trace]

	// Obs handles are resolved once in Observe; nil until then so the
	// packet path pays a single nil check when unobserved.
	obsPackets *obs.Counter
	obsInject  *obs.Counter
	obsRetrans *obs.Counter
	obsDrops   [numDropReasons]*obs.Counter
}

// Observe registers the network's packet, drop, injection and
// retransmission counters with reg. Call once, before traffic starts.
func (n *Network) Observe(reg *obs.Registry) {
	n.obsPackets = reg.Counter("netsim.packets")
	n.obsInject = reg.Counter("netsim.injected")
	n.obsRetrans = reg.Counter("netsim.tcp.retransmits")
	for r := DropReason(0); r < numDropReasons; r++ {
		n.obsDrops[r] = reg.Counter("netsim.drops." + r.String())
	}
}

// SetFlowTrace installs (or, with nil, removes) a flow tracer that
// receives a span for every drop, forged injection and TCP retransmission
// in the network.
func (n *Network) SetFlowTrace(t *obs.Trace) { n.flowTrace.Store(t) }

// NewPacket returns a Packet initialized to v, reusing a recycled struct
// when one is available. Senders that build their packets through it (the
// TCP/UDP layers and inspectors injecting forged traffic do) make the
// per-packet allocation disappear in steady state; a packet built with a
// plain literal still works and simply joins the pool when it dies.
func (n *Network) NewPacket(v Packet) *Packet {
	n.mu.Lock()
	var pkt *Packet
	if ln := len(n.pktFree); ln > 0 {
		pkt = n.pktFree[ln-1]
		n.pktFree[ln-1] = nil
		n.pktFree = n.pktFree[:ln-1]
	}
	n.mu.Unlock()
	if pkt == nil {
		pkt = &Packet{}
	}
	*pkt = v
	return pkt
}

// releasePacket recycles a packet whose journey has ended. Payload is
// cleared so the pool never pins wire bytes (TCP receivers retain payload
// slices, not the structs). Callers must not touch pkt afterwards.
func (n *Network) releasePacket(pkt *Packet) {
	*pkt = Packet{}
	n.mu.Lock()
	n.pktFree = append(n.pktFree, pkt)
	n.mu.Unlock()
}

// SetTrace installs a callback observing every packet as it is sent
// (nil disables). Used by tests and traffic-debugging tools. The Packet
// is recycled once it is delivered or dropped; callbacks must not retain
// it past their return.
func (n *Network) SetTrace(fn func(pkt *Packet)) {
	if fn == nil {
		n.trace.Store(nil)
		return
	}
	n.trace.Store(&fn)
}

// New creates an empty simulated internet driven by its own scheduler.
// seed controls all stochastic behaviour (packet loss draws).
func New(seed uint64) *Network {
	return &Network{
		sched: vclock.New(),
		seed:  seed,
		rand:  &simRand{key: splitmix64(seed ^ 0xE17825)},
		zones: make(map[string]*Zone),
		hosts: make(map[string]*Host),
		paths: make(map[[2]*Zone][]hop),
	}
}

// Scheduler exposes the underlying virtual-time scheduler.
func (n *Network) Scheduler() *vclock.Scheduler { return n.sched }

// Clock returns a netx.Clock running on the simulation's virtual time.
func (n *Network) Clock() netx.Clock { return simClock{n.sched} }

// Stop halts the simulation's scheduler.
func (n *Network) Stop() { n.sched.Stop() }

// Wait blocks until the simulation quiesces (no runnable goroutines, no
// pending events).
func (n *Network) Wait() { n.sched.Wait() }

// AddZone creates a zone.
func (n *Network) AddZone(name string) *Zone {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.zones[name]; ok {
		panic("netsim: duplicate zone " + name)
	}
	z := &Zone{name: name}
	n.zones[name] = z
	return z
}

// Connect joins two zones with a link. The returned handle can attach an
// inspector.
func (n *Network) Connect(a, b *Zone, cfg LinkConfig) *LinkHandle {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := &link{zones: [2]*Zone{a, b}, cfg: cfg}
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	n.paths = make(map[[2]*Zone][]hop) // invalidate route cache
	return &LinkHandle{n: n, l: l}
}

// LinkHandle allows post-construction configuration of a link.
type LinkHandle struct {
	n *Network
	l *link
}

// SetInspector installs an inspector that sees every packet crossing the
// link in either direction.
func (h *LinkHandle) SetInspector(i Inspector) {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	h.l.inspector = i
}

// Config returns the link's current characteristics.
func (h *LinkHandle) Config() LinkConfig {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	return h.l.cfg
}

// SetConfig replaces the link's characteristics. The per-packet path is
// resolved (and the config copied) at send time under the network mutex,
// so every packet sent after SetConfig returns experiences the new delay,
// bandwidth, loss and jitter — the hook fault injectors use to impair a
// live link mid-experiment. Packets already in flight are unaffected.
func (h *LinkHandle) SetConfig(cfg LinkConfig) {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	h.l.cfg = cfg
}

// Stats returns the traffic transmitted over the link so far (both
// directions combined).
func (h *LinkHandle) Stats() LinkStats {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	return h.l.stats
}

// SetBackgroundLoad imposes analytic fluid load (bytes/sec) on the link:
// ab in the zones[0]→zones[1] direction of the original Connect call, ba
// in the reverse. Packet-level traffic sent while the load is in place
// serializes at the residual bandwidth (capacity − load, floored at 1% of
// capacity), modeling a cohort of flow-level clients contending for the
// link without simulating their packets. Zero restores full capacity.
func (h *LinkHandle) SetBackgroundLoad(ab, ba float64) {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	h.l.dir[0].bg = ab
	h.l.dir[1].bg = ba
}

// BackgroundLoad reports the fluid load currently imposed on the link in
// each direction (bytes/sec).
func (h *LinkHandle) BackgroundLoad() (ab, ba float64) {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	return h.l.dir[0].bg, h.l.dir[1].bg
}

// AddHost attaches a new host to zone with the given access-link
// characteristics.
func (n *Network) AddHost(name, ip string, zone *Zone, access LinkConfig) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[ip]; ok {
		panic("netsim: duplicate host IP " + ip)
	}
	h := &Host{
		n:         n,
		name:      name,
		ip:        ip,
		zone:      zone,
		access:    access,
		tcpConns:  make(map[tcpKey]*Conn),
		listeners: make(map[int]*Listener),
		udpConns:  make(map[int]*PacketConn),
		nextPort:  40000,
	}
	h.cpuCond = vclock.NewCond(n.sched, &h.mu)
	n.hosts[ip] = h
	return h
}

// HostByIP returns the host with the given IP, or nil.
func (n *Network) HostByIP(ip string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[ip]
}

// route returns the hop sequence between two zones (excluding access
// links), computing and caching a BFS shortest path.
func (n *Network) route(from, to *Zone) ([]hop, bool) {
	if from == to {
		return nil, true
	}
	key := [2]*Zone{from, to}
	if p, ok := n.paths[key]; ok {
		return p, p != nil
	}
	type node struct {
		z   *Zone
		via []hop
	}
	visited := map[*Zone]bool{from: true}
	queue := []node{{z: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range cur.z.links {
			dirIdx := 0
			next := l.zones[1]
			if l.zones[0] != cur.z {
				dirIdx = 1
				next = l.zones[0]
			}
			if visited[next] {
				continue
			}
			visited[next] = true
			via := append(append([]hop(nil), cur.via...), hop{l: l, dirIdx: dirIdx})
			if next == to {
				n.paths[key] = via
				return via, true
			}
			queue = append(queue, node{z: next, via: via})
		}
	}
	n.paths[key] = nil
	return nil, false
}

// splitmix64 hashes x into a well-mixed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lossDraw returns a deterministic pseudo-random value in [0,1) for a
// (packet, hop) pair.
func (n *Network) lossDraw(pktID uint64, hopIdx int) float64 {
	h := splitmix64(n.seed ^ splitmix64(pktID) ^ uint64(hopIdx)*0x9e3779b97f4a7c15)
	return float64(h>>11) / float64(1<<53)
}

// SendFrom injects a packet into the network as if transmitted by host h.
// It is the low-level send used by the TCP and UDP layers.
func (n *Network) sendFrom(h *Host, pkt *Packet) {
	pkt.ID = n.pktID.Add(1)
	if n.obsPackets != nil {
		n.obsPackets.Inc()
	}
	if fn := n.trace.Load(); fn != nil {
		(*fn)(pkt)
	}
	h.statsMu.Lock()
	h.stats.TxPackets++
	h.stats.TxBytes += int64(pkt.Wire)
	h.statsMu.Unlock()

	n.mu.Lock()
	dst, ok := n.hosts[pkt.Dst.IP]
	if !ok {
		n.mu.Unlock()
		n.recordDrop(h, nil, pkt, DropNoRoute)
		n.releasePacket(pkt)
		return
	}
	zonePath, ok := n.route(h.zone, dst.zone)
	n.mu.Unlock()
	if !ok {
		n.recordDrop(h, dst, pkt, DropNoRoute)
		n.releasePacket(pkt)
		return
	}
	// Full path: source access link, zone hops, destination access link.
	hops := make([]pathStep, 0, len(zonePath)+2)
	hops = append(hops, pathStep{cfg: h.access, dir: &h.accessUp})
	for _, zh := range zonePath {
		hops = append(hops, pathStep{
			cfg:       zh.l.cfg,
			dir:       &zh.l.dir[zh.dirIdx],
			inspector: zh.l.inspector,
			fromZone:  zh.l.zones[zh.dirIdx],
			link:      zh.l,
			dirIdx:    zh.dirIdx,
		})
	}
	hops = append(hops, pathStep{cfg: dst.access, dir: &dst.accessDown})
	n.step(h, dst, pkt, hops, 0)
}

// InjectToward delivers a forged packet from the given zone toward the
// packet's destination, used by inspectors for RST injection and DNS
// poisoning. The packet does not traverse the zone's own inspectors again
// (the GFW does not censor itself).
func (n *Network) InjectToward(from *Zone, pkt *Packet) {
	pkt.ID = n.pktID.Add(1)
	pkt.Injected = true
	if n.obsInject != nil {
		n.obsInject.Inc()
	}
	if t := n.flowTrace.Load(); t != nil {
		kind := "forged"
		if pkt.RST {
			kind = "rst"
		}
		t.Addf("netsim", "inject", "%s %s -> %s", kind, pkt.Src, pkt.Dst)
	}
	n.mu.Lock()
	dst, ok := n.hosts[pkt.Dst.IP]
	if !ok {
		n.mu.Unlock()
		n.releasePacket(pkt)
		return
	}
	zonePath, ok := n.route(from, dst.zone)
	n.mu.Unlock()
	if !ok {
		n.releasePacket(pkt)
		return
	}
	hops := make([]pathStep, 0, len(zonePath)+1)
	for _, zh := range zonePath {
		hops = append(hops, pathStep{cfg: zh.l.cfg, dir: &zh.l.dir[zh.dirIdx], link: zh.l, dirIdx: zh.dirIdx})
	}
	hops = append(hops, pathStep{cfg: dst.access, dir: &dst.accessDown})
	n.step(nil, dst, pkt, hops, 0)
}

type pathStep struct {
	cfg       LinkConfig
	dir       *dirState
	inspector Inspector
	// fromZone is the zone at the ingress of this hop (nil for access
	// links); forged packets triggered by an inspector verdict originate
	// here so they obey the same path delays as real traffic.
	fromZone *Zone
	// link is the zone link this step transmits over (nil for access
	// links); used for per-link traffic accounting. dirIdx is the
	// direction index into link.dir/stats.DirBytes.
	link   *link
	dirIdx int
}

// step simulates the packet's traversal of hops[i] and schedules the next
// hop (or final delivery) at the computed arrival time.
func (n *Network) step(src, dst *Host, pkt *Packet, hops []pathStep, i int) {
	if i >= len(hops) {
		dst.dispatch(pkt)
		return
	}
	st := &hops[i]

	// Inspection happens before transmission: middleboxes sit at the
	// ingress of the border link.
	if st.inspector != nil {
		switch st.inspector.Inspect(pkt) {
		case VerdictDrop:
			n.recordDrop(src, dst, pkt, DropInspector)
			n.releasePacket(pkt)
			return
		case VerdictReset:
			n.recordDrop(src, dst, pkt, DropInspector)
			if pkt.Proto == ProtoTCP {
				n.injectResetPair(pkt, st.fromZone)
			}
			n.releasePacket(pkt)
			return
		}
	}

	now := n.sched.Elapsed()
	n.mu.Lock()
	start := now
	if st.dir.nextFree > start {
		start = st.dir.nextFree
	}
	queueDelay := start - now
	if queueDelay > st.cfg.maxQueue() {
		n.mu.Unlock()
		n.recordDrop(src, dst, pkt, DropQueue)
		n.releasePacket(pkt)
		return
	}
	var txTime time.Duration
	if bw := st.cfg.Bandwidth; bw > 0 {
		if st.dir.bg > 0 {
			// Fluid cohorts occupy part of the capacity; packets
			// serialize at what is left.
			bw -= st.dir.bg
			if min := st.cfg.Bandwidth * minResidualFrac; bw < min {
				bw = min
			}
		}
		txTime = time.Duration(float64(pkt.Wire) / bw * float64(time.Second))
	}
	st.dir.nextFree = start + txTime
	if st.link != nil {
		st.link.stats.Packets++
		st.link.stats.Bytes += int64(pkt.Wire)
		st.link.stats.DirBytes[st.dirIdx] += int64(pkt.Wire)
	}
	n.mu.Unlock()

	if st.cfg.BaseLoss > 0 && n.lossDraw(pkt.ID, i) < st.cfg.BaseLoss {
		n.recordDrop(src, dst, pkt, DropLoss)
		n.releasePacket(pkt)
		return
	}

	arrive := start + txTime + st.cfg.Delay
	if st.cfg.Jitter > 0 {
		arrive += time.Duration(n.lossDraw(pkt.ID^0xA5A5A5A5, i) * float64(st.cfg.Jitter))
	}
	n.sched.Event(arrive-now, func() {
		n.step(src, dst, pkt, hops, i+1)
	})
}

// injectResetPair forges RST packets toward both endpoints of a TCP flow.
// Both packets originate at the censoring link's ingress zone, so the RST
// toward the far endpoint traverses the border link itself and cannot
// overtake traffic already in flight (real GFW RSTs race the genuine
// stream from the border router, they do not teleport past it).
func (n *Network) injectResetPair(orig *Packet, at *Zone) {
	if at == nil {
		n.mu.Lock()
		if h := n.hosts[orig.Src.IP]; h != nil {
			at = h.zone
		}
		n.mu.Unlock()
		if at == nil {
			return
		}
	}
	mk := func(src, dst AddrPort, seq uint32) *Packet {
		return n.NewPacket(Packet{
			Proto: ProtoTCP,
			Src:   src, Dst: dst,
			RST:  true,
			Seq:  seq,
			Wire: tcpHeaderSize,
		})
	}
	// Forged RSTs claim to come from the opposite endpoint.
	n.InjectToward(at, mk(orig.Dst, orig.Src, orig.AckNum))
	n.InjectToward(at, mk(orig.Src, orig.Dst, orig.Seq+uint32(len(orig.Payload))))
}

func (n *Network) recordDrop(src, dst *Host, pkt *Packet, reason DropReason) {
	if src != nil {
		src.statsMu.Lock()
		src.stats.LostOutbound++
		src.statsMu.Unlock()
	}
	if dst != nil {
		dst.statsMu.Lock()
		dst.stats.LostInbound++
		dst.statsMu.Unlock()
	}
	if c := n.obsDrops[reason]; c != nil {
		c.Inc()
	}
	if t := n.flowTrace.Load(); t != nil {
		t.Addf("netsim", "drop", "%s %s %s -> %s (%d bytes)",
			reason, pkt.Proto, pkt.Src, pkt.Dst, pkt.Wire)
	}
}

// noteRetransmit is called by the TCP layer every time a segment is sent
// again (RTO expiry or fast retransmit).
func (n *Network) noteRetransmit(local, remote AddrPort) {
	if n.obsRetrans != nil {
		n.obsRetrans.Inc()
	}
	if t := n.flowTrace.Load(); t != nil {
		t.Addf("netsim", "retransmit", "%s -> %s", local, remote)
	}
}

// simClock adapts the scheduler to netx.Clock.
type simClock struct{ s *vclock.Scheduler }

func (c simClock) Now() time.Time        { return c.s.Now() }
func (c simClock) Sleep(d time.Duration) { c.s.Sleep(d) }
func (c simClock) AfterFunc(d time.Duration, fn func()) netx.Timer {
	return c.s.AfterFunc(d, fn)
}

// simSync adapts vclock conds to netx.Sync.
type simSync struct{ s *vclock.Scheduler }

// NewCond implements netx.Sync.
func (y simSync) NewCond(l sync.Locker) netx.Cond { return vclock.NewCond(y.s, l) }

// simRand is the simulation's deterministic entropy source: a seeded
// splitmix64 counter stream. Because the scheduler serializes managed
// goroutines, draw ORDER within a world is deterministic, so every nonce,
// IV, and handshake key — and everything the censor's entropy heuristics
// decide from the resulting wire bytes — is a pure function of the seed.
type simRand struct {
	mu  sync.Mutex
	ctr uint64
	key uint64
}

func (r *simRand) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Single-byte reads are served statelessly, without advancing the
	// counter. crypto/internal/randutil.MaybeReadByte — called by the
	// stdlib crypto packages (ecdh, ecdsa, rsa) precisely to stop callers
	// from relying on a deterministic rand.Reader — consumes one byte on
	// a *runtime-random* 50% of calls; if that read advanced the stream,
	// every key generated afterwards would depend on a coin flip the
	// scheduler cannot serialize, and no seeded world would replay.
	if len(p) == 1 {
		p[0] = byte(splitmix64(r.key ^ r.ctr ^ 0xB17E))
		return 1, nil
	}
	for i := 0; i < len(p); i += 8 {
		r.ctr++
		v := splitmix64(r.key ^ r.ctr)
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return len(p), nil
}

// Env returns the netx environment (clock, spawner, sync, entropy) backed
// by this simulation's scheduler and seed.
func (n *Network) Env() netx.Env {
	return netx.Env{
		Clock: simClock{n.sched},
		Spawn: n.sched,
		Sync:  simSync{n.sched},
		Rand:  n.rand,
	}
}
