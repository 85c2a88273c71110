// Package gfw implements the Great Firewall: a stateful censoring
// middlebox installed on the simulated border link between China and the
// rest of the internet.
//
// It reproduces the technical blocking mechanisms the paper (§1, §5) and
// the literature it cites attribute to the real GFW:
//
//   - DNS poisoning: queries for blacklisted names crossing the border are
//     answered with a forged A record that races (and beats) the genuine
//     answer.
//   - IP blocking: packets to or from blacklisted addresses are silently
//     dropped (blackholed).
//   - Keyword filtering / URL filtering: cleartext HTTP Hosts and TLS SNIs
//     matching the blacklist trigger forged RSTs to both endpoints.
//   - Deep packet inspection: the first client bytes of every flow are
//     fingerprinted (TLS, HTTP, PPTP, L2TP, OpenVPN, meek fronts,
//     unidentifiable-but-encrypted).
//   - Active probing: servers of unidentifiable encrypted flows are probed
//     by replaying captured bytes; servers that behave like Shadowsocks
//     (accept arbitrary high-entropy data, answer nothing, hold the
//     connection) are confirmed and their flows degraded. Servers that
//     drop the probe immediately — ScholarCloud's remote proxy — are not
//     confirmed.
//   - Interference: flows classified as circumvention (meek, confirmed
//     Shadowsocks) suffer deliberate packet loss, the paper's robustness
//     metric.
//
// The GFW never consults the ICP registry: technical blocking and
// non-technical regulation run asynchronously (§2), which is both why
// Google Scholar is incidentally blocked and why ScholarCloud's blinded,
// unconfirmable flows pass.
package gfw

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scholarcloud/internal/dnssim"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
)

// Config parameterizes the firewall.
type Config struct {
	// Network and Zone locate the firewall: forged packets are injected
	// from Zone (the Chinese side of the border link).
	Network *netsim.Network
	Zone    *netsim.Zone
	// Clock and Spawn drive active probing.
	Clock netx.Clock
	Spawn netx.Spawner

	// BlockedDomains is the keyword blacklist (matches subdomains).
	BlockedDomains []string
	// BlockedIPs are blackholed addresses.
	BlockedIPs []string
	// PoisonIP is the address forged into poisoned DNS answers.
	PoisonIP string
	// MeekFronts are CDN hostnames the GFW associates with Tor's meek.
	MeekFronts []string

	// MeekLossRate is the deliberate drop probability applied to meek
	// flows (paper: Tor's measured PLR averaged 4.4%).
	MeekLossRate float64
	// ShadowsocksLossRate is applied to flows whose server has been
	// confirmed by active probing (paper: 0.77%).
	ShadowsocksLossRate float64

	// ProbeDelay is how long after suspicion the active probe launches.
	ProbeDelay time.Duration
	// ProbeFrom is the GFW-controlled host probes originate from. Its
	// own traffic is exempt from inspection. Nil disables probing.
	ProbeFrom *netsim.Host

	// Seed drives the deterministic interference-loss draws.
	Seed uint64
}

// Stats counts the firewall's actions.
type Stats struct {
	PacketsInspected  int64
	FlowsTracked      int64
	DNSPoisoned       int64
	IPBlocked         int64
	KeywordResets     int64
	ProbesLaunched    int64
	ServersConfirmed  int64
	ServersExonerated int64
	InterferenceDrops int64
	StormResets       int64
	ThrottleDrops     int64
	ClassResets       int64
}

type flowState struct {
	clientIP   string // initiator (first SYN seen)
	serverIP   string
	serverPort int
	firstBytes []byte // client→server prefix for DPI
	class      Class
	classified bool
	blockedKW  bool
}

// GFW is the firewall. It implements netsim.Inspector.
type GFW struct {
	cfg        Config
	meekFronts map[string]bool

	mu         sync.Mutex
	flows      map[netsim.FlowKey]*flowState
	blockedIP  map[string]bool
	confirmed  map[string]bool // "ip:port" -> confirmed circumvention server
	cleared    map[string]bool // probed and exonerated
	probing    map[string]bool // probe in flight
	classCount map[Class]int64
	stats      Stats

	// Episode state, set at runtime via Apply (zero = inactive).
	stormRate    float64 // prob. a tracked TCP packet draws forged RSTs
	throttleLoss float64 // extra drop prob. on every tracked TCP packet
	// scrutinizeCleartext keeps small-sample cleartext verdicts
	// provisional even outside a crackdown (Policy.ScrutinizeCleartext).
	scrutinizeCleartext bool

	// blockedClass marks traffic classes under a fingerprint crackdown:
	// every packet of a classified flow in a blocked class is answered
	// with forged RSTs. Set at runtime via Apply; the transport
	// escalation experiments use it to kill one carrier rung at a time.
	blockedClass map[Class]bool

	flowTrace atomic.Pointer[obs.Trace]
	// obsVerdicts counts Inspect outcomes, indexed by netsim.Verdict.
	// Resolved once in Instrument; nil entries mean unobserved.
	obsVerdicts [3]*obs.Counter
}

// knownClasses is every class DPI can assign, for metric registration.
var knownClasses = []Class{
	ClassUnknown, ClassHTTP, ClassTLS, ClassMeek, ClassPPTP,
	ClassL2TP, ClassOpenVPN, ClassEncrypted, ClassLowEntropy,
}

// Instrument publishes the firewall's verdict, per-class and mechanism
// counters on reg. Call once, before traffic starts.
func (g *GFW) Instrument(reg *obs.Registry) {
	g.obsVerdicts[netsim.VerdictPass] = reg.Counter("gfw.verdicts.pass")
	g.obsVerdicts[netsim.VerdictDrop] = reg.Counter("gfw.verdicts.drop")
	g.obsVerdicts[netsim.VerdictReset] = reg.Counter("gfw.verdicts.reset")
	for _, c := range knownClasses {
		c := c
		reg.RegisterFunc("gfw.class."+string(c), func() int64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.classCount[c]
		})
	}
	for name, read := range map[string]func(Stats) int64{
		"gfw.packets_inspected":  func(s Stats) int64 { return s.PacketsInspected },
		"gfw.flows_tracked":      func(s Stats) int64 { return s.FlowsTracked },
		"gfw.dns_poisoned":       func(s Stats) int64 { return s.DNSPoisoned },
		"gfw.ip_blocked":         func(s Stats) int64 { return s.IPBlocked },
		"gfw.keyword_resets":     func(s Stats) int64 { return s.KeywordResets },
		"gfw.probes_launched":    func(s Stats) int64 { return s.ProbesLaunched },
		"gfw.servers_confirmed":  func(s Stats) int64 { return s.ServersConfirmed },
		"gfw.servers_exonerated": func(s Stats) int64 { return s.ServersExonerated },
		"gfw.interference_drops": func(s Stats) int64 { return s.InterferenceDrops },
		"gfw.storm_resets":       func(s Stats) int64 { return s.StormResets },
		"gfw.throttle_drops":     func(s Stats) int64 { return s.ThrottleDrops },
		"gfw.class_resets":       func(s Stats) int64 { return s.ClassResets },
	} {
		read := read
		reg.RegisterFunc(name, func() int64 { return read(g.Stats()) })
	}
}

// BlockedClasses reports the classes currently under a crackdown.
func (g *GFW) BlockedClasses() []Class {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Class, 0, len(g.blockedClass))
	for c := range g.blockedClass {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// SetTrace installs (or, with nil, removes) a flow tracer receiving a span
// for every classification, keyword reset, DNS poisoning, IP block,
// interference drop and active-probe event.
func (g *GFW) SetTrace(t *obs.Trace) { g.flowTrace.Store(t) }

// New creates a firewall from cfg.
func New(cfg Config) *GFW {
	g := &GFW{
		cfg:          cfg,
		meekFronts:   make(map[string]bool),
		flows:        make(map[netsim.FlowKey]*flowState),
		blockedIP:    make(map[string]bool),
		confirmed:    make(map[string]bool),
		cleared:      make(map[string]bool),
		probing:      make(map[string]bool),
		classCount:   make(map[Class]int64),
		blockedClass: make(map[Class]bool),
	}
	for _, f := range cfg.MeekFronts {
		g.meekFronts[strings.ToLower(f)] = true
	}
	for _, ip := range cfg.BlockedIPs {
		g.blockedIP[ip] = true
	}
	return g
}

// Stats returns a snapshot of the firewall's counters.
func (g *GFW) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// ClassCounts returns how many flows DPI assigned to each class.
func (g *GFW) ClassCounts() map[Class]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[Class]int64, len(g.classCount))
	for c, n := range g.classCount {
		out[c] = n
	}
	return out
}

// ConfirmedServers lists endpoints active probing has confirmed.
func (g *GFW) ConfirmedServers() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.confirmed))
	for ep := range g.confirmed {
		out = append(out, ep)
	}
	return out
}

// domainBlocked reports whether host matches the keyword blacklist.
func (g *GFW) domainBlocked(host string) bool {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	for _, d := range g.cfg.BlockedDomains {
		if host == d || strings.HasSuffix(host, "."+d) {
			return true
		}
	}
	return false
}

// Inspect implements netsim.Inspector. It runs on the simulator's driver
// goroutine for every packet crossing the border link, in both
// directions.
func (g *GFW) Inspect(pkt *netsim.Packet) netsim.Verdict {
	v := g.inspect(pkt)
	if c := g.obsVerdicts[v]; c != nil {
		c.Inc()
	}
	return v
}

// inspect is the single funnel behind Inspect so verdict accounting has
// one exit point.
func (g *GFW) inspect(pkt *netsim.Packet) netsim.Verdict {
	// The firewall's own probe traffic is exempt.
	if g.cfg.ProbeFrom != nil {
		ip := g.cfg.ProbeFrom.IP()
		if pkt.Src.IP == ip || pkt.Dst.IP == ip {
			return netsim.VerdictPass
		}
	}

	g.mu.Lock()
	g.stats.PacketsInspected++

	// IP blocking: silent blackhole, both directions.
	if g.blockedIP[pkt.Src.IP] || g.blockedIP[pkt.Dst.IP] {
		g.stats.IPBlocked++
		g.mu.Unlock()
		g.flowTrace.Load().Addf("gfw", "ip-block", "%s -> %s", pkt.Src, pkt.Dst)
		return netsim.VerdictDrop
	}

	switch pkt.Proto {
	case netsim.ProtoUDP:
		v := g.inspectUDPLocked(pkt)
		g.mu.Unlock()
		return v
	case netsim.ProtoTCP:
		return g.inspectTCP(pkt) // unlocks internally
	}
	g.mu.Unlock()
	return netsim.VerdictPass
}

// inspectUDPLocked handles datagrams; DNS poisoning lives here.
func (g *GFW) inspectUDPLocked(pkt *netsim.Packet) netsim.Verdict {
	if pkt.Dst.Port != 53 {
		return netsim.VerdictPass
	}
	id, name, err := dnssim.ParseQuery(pkt.Payload)
	if err != nil || !g.domainBlocked(name) {
		return netsim.VerdictPass
	}
	// Forge an answer that races the genuine one. The query itself is
	// passed through — the real GFW lets it go and wins the race because
	// it answers from the border.
	g.stats.DNSPoisoned++
	g.flowTrace.Load().Addf("gfw", "dns-poison", "%s -> %s", name, g.cfg.PoisonIP)
	forged := &dnssim.Message{
		ID:       id,
		Response: true,
		Question: dnssim.Question{Name: name, Type: dnssim.TypeA},
		Answers: []dnssim.RR{{
			Name: name,
			Type: dnssim.TypeA,
			TTL:  3600,
			Data: g.cfg.PoisonIP,
		}},
	}
	wire, err := forged.Marshal()
	if err == nil {
		g.cfg.Network.InjectToward(g.cfg.Zone, g.cfg.Network.NewPacket(netsim.Packet{
			Proto:   netsim.ProtoUDP,
			Src:     pkt.Dst, // spoofed: appears to come from the resolver
			Dst:     pkt.Src,
			Payload: wire,
			Wire:    len(wire) + 28,
		}))
	}
	return netsim.VerdictPass
}

// inspectTCP tracks flows, fingerprints first bytes, applies keyword
// resets and interference. Called with g.mu held; unlocks before
// returning.
func (g *GFW) inspectTCP(pkt *netsim.Packet) netsim.Verdict {
	key := pkt.FlowKey()
	fs, ok := g.flows[key]
	if !ok {
		if pkt.RST {
			g.mu.Unlock()
			return netsim.VerdictPass
		}
		fs = &flowState{}
		if pkt.SYN && !pkt.ACK {
			fs.clientIP = pkt.Src.IP
			fs.serverIP = pkt.Dst.IP
			fs.serverPort = pkt.Dst.Port
		} else {
			// Mid-flow pickup: assume the lower port is the server.
			if pkt.Src.Port < pkt.Dst.Port {
				fs.clientIP, fs.serverIP, fs.serverPort = pkt.Dst.IP, pkt.Src.IP, pkt.Src.Port
			} else {
				fs.clientIP, fs.serverIP, fs.serverPort = pkt.Src.IP, pkt.Dst.IP, pkt.Dst.Port
			}
		}
		g.flows[key] = fs
		g.stats.FlowsTracked++
	}
	if pkt.FIN || pkt.RST {
		// Flow ending; forget it once both sides are done. Approximation:
		// drop state on first FIN/RST — retransmissions re-create it as
		// mid-flow pickups, which is harmless.
		defer delete(g.flows, key)
	}

	// Buffer the client's first flight for DPI.
	if !fs.classified && pkt.Src.IP == fs.clientIP && len(pkt.Payload) > 0 {
		if len(fs.firstBytes) < 2048 {
			fs.firstBytes = append(fs.firstBytes, pkt.Payload...)
		}
		class := classify(fs.firstBytes, g.meekFronts)
		if class != ClassUnknown {
			// During a class crackdown — or whenever the policy raises
			// ScrutinizeCleartext — a cleartext verdict on a tiny sample
			// stays provisional: a couple of 9-byte keepalive frames look
			// printable under a byte-substitution cipher, and latching on
			// them would leave the flow permanently immune to an
			// encrypted-fingerprint crackdown. Keep buffering and
			// re-examine until enough of the first flight has crossed to
			// commit. Otherwise the verdict latches immediately
			// (steady-state DPI spends no extra scrutiny on a flow it has
			// no reason to reset).
			fs.classified = class != ClassLowEntropy ||
				len(fs.firstBytes) >= lowEntropyLatchBytes ||
				(len(g.blockedClass) == 0 && !g.scrutinizeCleartext)
			changed := class != fs.class
			if changed {
				fs.class = class
				g.classCount[fs.class]++
				g.onClassifiedLocked(fs)
			}
			if t := g.flowTrace.Load(); changed && t != nil {
				treatment := "pass"
				switch {
				case fs.blockedKW:
					treatment = "keyword-reset"
				case fs.class == ClassMeek && g.cfg.MeekLossRate > 0:
					treatment = "interfere"
				case fs.class == ClassEncrypted && g.confirmed[endpoint(fs.serverIP, fs.serverPort)]:
					treatment = "interfere"
				}
				t.Addf("gfw", "classify", "%s class=%s verdict=%s",
					endpoint(fs.serverIP, fs.serverPort), fs.class, treatment)
			}
		}
	}

	// Keyword filtering: blocked Host/SNI gets forged RSTs.
	if fs.blockedKW {
		g.stats.KeywordResets++
		g.mu.Unlock()
		g.flowTrace.Load().Addf("gfw", "keyword-reset", "%s -> %s", pkt.Src, pkt.Dst)
		return netsim.VerdictReset
	}

	// Fingerprint crackdown: flows whose class is under a block get
	// forged RSTs — the censor move the transport ladder escapes from.
	// A provisional verdict counts: during a crackdown the censor acts
	// on its best guess rather than waiting out DPI.
	if g.blockedClass[fs.class] {
		g.stats.ClassResets++
		class := fs.class
		g.mu.Unlock()
		g.flowTrace.Load().Addf("gfw", "class-reset", "%s %s -> %s", class, pkt.Src, pkt.Dst)
		return netsim.VerdictReset
	}

	// Episodic interference (fault-injected): a reset storm answers a
	// fraction of tracked flows' packets with forged RSTs; a throttling
	// episode drops an extra fraction of every packet crossing the border.
	if g.stormRate > 0 && g.lossDraw(pkt.ID^0x57072) < g.stormRate {
		g.stats.StormResets++
		g.mu.Unlock()
		g.flowTrace.Load().Addf("gfw", "storm-reset", "%s -> %s", pkt.Src, pkt.Dst)
		return netsim.VerdictReset
	}
	if g.throttleLoss > 0 && g.lossDraw(pkt.ID^0x7407713) < g.throttleLoss {
		g.stats.ThrottleDrops++
		g.mu.Unlock()
		g.flowTrace.Load().Addf("gfw", "throttle-drop", "%s -> %s", pkt.Src, pkt.Dst)
		return netsim.VerdictDrop
	}

	// Interference against classified circumvention flows.
	drop := 0.0
	switch fs.class {
	case ClassMeek:
		drop = g.cfg.MeekLossRate
	case ClassEncrypted:
		if g.confirmed[endpoint(fs.serverIP, fs.serverPort)] {
			drop = g.cfg.ShadowsocksLossRate
		}
	}
	if drop > 0 && g.lossDraw(pkt.ID) < drop {
		g.stats.InterferenceDrops++
		class := fs.class
		g.mu.Unlock()
		g.flowTrace.Load().Addf("gfw", "interference-drop", "%s %s -> %s",
			class, pkt.Src, pkt.Dst)
		return netsim.VerdictDrop
	}
	g.mu.Unlock()
	return netsim.VerdictPass
}

// onClassifiedLocked applies first-classification policy.
func (g *GFW) onClassifiedLocked(fs *flowState) {
	switch fs.class {
	case ClassHTTP:
		if host, ok := httpHost(fs.firstBytes); ok && g.domainBlocked(host) {
			fs.blockedKW = true
		}
	case ClassTLS:
		if sni, ok := sniOf(fs.firstBytes); ok && g.domainBlocked(sni) {
			fs.blockedKW = true
		}
	case ClassEncrypted:
		ep := endpoint(fs.serverIP, fs.serverPort)
		if !g.confirmed[ep] && !g.cleared[ep] && !g.probing[ep] && g.cfg.ProbeFrom != nil {
			g.probing[ep] = true
			g.scheduleProbeLocked(ep, append([]byte(nil), fs.firstBytes...))
		}
	case ClassLowEntropy:
		// Unrecognized cleartext: the GFW's keyword filter scans raw
		// payloads too (Crandall et al.'s ConceptDoppler measured this
		// backbone-level HTML/keyword filtering). An unblinded
		// ScholarCloud tunnel leaks its targets here — the mechanism that
		// makes message blinding necessary.
		if host, ok := scanForBlockedName(fs.firstBytes, g.cfg.BlockedDomains); ok {
			_ = host
			fs.blockedKW = true
		}
	}
}

// scanForBlockedName searches raw bytes for any blacklisted name.
func scanForBlockedName(b []byte, blocked []string) (string, bool) {
	lower := strings.ToLower(string(b))
	for _, d := range blocked {
		if strings.Contains(lower, d) {
			return d, true
		}
	}
	return "", false
}

func endpoint(ip string, port int) string {
	return ip + ":" + itoa(port)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// lossDraw returns a deterministic pseudo-random value in [0,1) per
// packet.
func (g *GFW) lossDraw(pktID uint64) float64 {
	x := g.cfg.Seed ^ (pktID * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

func sniOf(b []byte) (string, bool) {
	return parseSNI(b)
}
