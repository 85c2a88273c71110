// Package experiments assembles the censored world of the paper's
// methodology (§4.2) — a client at Tsinghua inside CERNET, origin and
// proxy servers in the US, a Tor middle relay in Europe, and the GFW on
// the border — and provides one runner per figure of the evaluation.
package experiments

import (
	"fmt"
	"time"

	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netsim"
)

// Calibration constants. Each value targets a quantity the paper reports;
// mechanisms (retransmission, queueing, handshakes, polling) do the rest.
const (
	// accessDelay/accessBW model campus LAN access (CERNET) and
	// datacenter NICs: a couple of milliseconds, 100 Mbps.
	accessDelay = 2 * time.Millisecond
	accessBW    = 12.5e6

	// borderDelay is the one-way Beijing↔San-Mateo propagation, chosen so
	// the end-to-end RTT lands near 160 ms — consistent with the paper's
	// Fig. 5b range for single-tunnel methods (150–250 ms).
	borderDelay = 73 * time.Millisecond

	// borderJitter is per-packet delay variance on the international
	// path; it produces the min/max whiskers the paper's figures show.
	borderJitter = 6 * time.Millisecond

	// borderLoss is the cross-border congestion loss with no censorship
	// involvement. The paper measures ≈0.2% PLR for VPNs and for
	// non-blocked US sites (Amazon) — that is this constant, observed
	// through the client's flows.
	borderLoss = 0.002

	// euDelay is the US↔EU leg a Tor circuit's middle hop adds.
	euDelay = 25 * time.Millisecond

	// cnBackboneDelay separates CERNET from the Chinese commodity
	// internet where the ScholarCloud domestic proxy lives.
	cnBackboneDelay = 3 * time.Millisecond

	// gfwMeekLoss is the interference rate the GFW applies to flows whose
	// TLS fronts match Tor's meek bundle. With borderLoss on top, the
	// client observes ≈4.4% (Fig. 5c: Tor).
	gfwMeekLoss = 0.042

	// gfwShadowsocksLoss is applied to flows whose server an active probe
	// confirmed. With borderLoss on top, ≈0.77% (Fig. 5c: Shadowsocks).
	gfwShadowsocksLoss = 0.0057

	// gfwProbeDelay is how long after suspicion the prober fires; the
	// real GFW probes within seconds to minutes.
	gfwProbeDelay = 2 * time.Second

	// meekPollInterval is meek's polling cadence (the real client's
	// adaptive floor is 100 ms).
	meekPollInterval = 100 * time.Millisecond

	// vpnEchoInterval/Size model PPTP GRE echo + OS background chatter
	// that full-tunnel routing forces through the measured interface;
	// calibrated so native VPN's per-access client traffic exceeds the
	// direct baseline by ≈14 KB (Fig. 6a's largest overhead).
	vpnEchoInterval = 1500 * time.Millisecond
	vpnEchoSize     = 72

	// openvpnPingInterval/Size model OpenVPN's --ping keepalive;
	// compression offsets most of its framing, leaving the smallest
	// overhead (+≈8 KB in Fig. 6a).
	openvpnPingInterval = 2 * time.Second
	openvpnPingSize     = 48

	// Server-side CPU costs (single-core VM, 2.3 GHz in the paper). The
	// scalability experiment (Fig. 7) emerges from these: Shadowsocks
	// pays a large per-session authentication/initialization cost (the
	// paper's root cause: user/password authentication plus session
	// re-initialization after the 10 s keep-alive), so server utilization
	// approaches 1 near 60 concurrent clients — the knee of Fig. 7 —
	// and queueing delays beyond the keep-alive trigger re-auth cascades.
	// The other methods' per-stream costs are an order of magnitude
	// smaller, so their PLT grows gently and linearly.
	ssAuthCost     = 900 * time.Millisecond
	ssRelayCost    = 12 * time.Millisecond
	vpnStreamCost  = 22 * time.Millisecond
	ovpnStreamCost = 10 * time.Millisecond
	scStreamCost   = 9 * time.Millisecond
)

// scholarPage is the Scholar home page composition: the application-layer
// payload plus transport overheads put a direct access at ≈19 KB of
// client NIC traffic (Fig. 6a's dotted baseline).
func scholarPage() httpsim.PageSpec {
	return httpsim.PageSpec{
		MainDocSize: 7 * 1024,
		Resources: []httpsim.ResourceSpec{
			{Path: "/static/scholar.js", Size: 3 * 1024},
			{Path: "/static/scholar.css", Size: 1536},
			{Path: "/static/logo.png", Size: 2560},
			{Path: "/static/sprite.png", Size: 1024},
		},
	}
}

// Host addresses of the simulated world.
const (
	ipClient   = "10.3.0.2"
	ipProber   = "10.255.0.1"
	ipDomestic = "101.6.6.6"
	// shardIPBase prefixes the extra domestic shards: shard i (i ≥ 1)
	// lives at shardIPBase+(10+i); shard 0 is ipDomestic itself.
	shardIPBase = "101.6.6."
	ipTsinghua  = "166.111.4.100"
	ipDNS       = "8.8.8.8"
	ipScholar   = "172.217.6.78"
	ipAccounts  = "172.217.6.79"
	ipMirror    = "198.51.100.99"
	// ipUnblockedGoogle is an IP the GFW has not blacklisted (yet) — a
	// volunteer mirror of Scholar, the kind of address hosts-file and
	// Free-Gate-style users hunted for.
	ipUnblockedGoogle = "64.233.189.19"
	// mirrorAltName is the mirror's innocuous hostname (absent from both
	// public DNS and the keyword blacklist).
	mirrorAltName = "xueshu-mirror.example"
	ipVPN         = "198.51.100.10"
	ipOpenVPN     = "198.51.100.11"
	ipSS          = "198.51.100.12"
	ipSCRemote    = "198.51.100.7"
	ipMeekFront   = "13.107.246.10"
	ipTorMiddle   = "185.220.101.5"
	ipTorExit     = "204.13.164.118"
	meekFrontSNI  = "ajax.aspnetcdn.com"

	portVPN      = 1723
	portOpenVPN  = 1194
	portSS       = 8388
	portSCRemote = 8443
	portProxy    = 8118
	portPACWeb   = 8080
	portEcho     = 7

	// fleetRemoteIPBase prefixes the extra fleet remotes: remote i lives
	// at fleetRemoteIPBase+(70+i), e.g. 198.51.100.71 for i=1. The block
	// runs out at i=28 (.99 is the mirror), so larger fleets — the scale
	// figure's provisioning ladder — overflow into fleetRemoteIPBase2
	// (see fleetRemoteIP). Keeping the small-fleet addresses unchanged
	// keeps every historical fleet figure byte-identical.
	fleetRemoteIPBase  = "198.51.100."
	fleetRemoteIPBase2 = "198.51.101."
)

// fleetRemoteIP returns extra fleet remote i's address (i ≥ 1).
func fleetRemoteIP(i int) string {
	if i <= 28 {
		return fmt.Sprintf("%s%d", fleetRemoteIPBase, 70+i)
	}
	return fmt.Sprintf("%s%d", fleetRemoteIPBase2, i-28)
}

// Fleet control-plane cadence of every plain border pool — the paper's
// single remote included (a one-member pool). Probes ride the existing
// carriers, so a tight cadence costs one tiny frame exchange (a few
// percent of a cacheless sweep's border bytes, see EXPERIMENTS.md);
// the numbers bound how long a silent takedown can go unnoticed:
// detection takes at most 2 probe rounds (EjectAfter is the fleet
// default of 2), i.e. ~2*fleetProbeInterval.
const (
	fleetProbeInterval  = 2 * time.Second
	fleetProbeTimeout   = 1 * time.Second
	fleetReadmitBackoff = 15 * time.Second
)

// Transport-ladder infrastructure (Config.Transports non-empty). The
// blinded rung reuses the primary remote; the other rungs get their own
// cover infrastructure in the US zone.
const (
	// tunnelDomain is the DNS tunnel's innocuous zone — absent from the
	// GFW's keyword blacklist, so its queries recurse unmolested.
	tunnelDomain = "cdn-sync.example"
	// ipTunnelAuth hosts the tunnel's authoritative server (the remote
	// proxy's DNS face).
	ipTunnelAuth = "198.51.100.53"
	// Public recursive resolvers the tunnel rotates through. They relay
	// to the authority; the censor sees only resolver traffic.
	tunnelRelays = 3
	// ipGatewayBase prefixes the rendezvous gateway pool: gateway i
	// lives at ipGatewayBase+(10+i):443 — a slice of a cloud provider's
	// ephemeral address space.
	ipGatewayBase   = "203.0.113."
	gatewayPoolSize = 8
	// rendezvousSNI is the innocuous cloud-front server name rendezvous
	// connections present in the clear.
	rendezvousSNI = "fn.cloudapi.example"
	// rendezvousInvocationUSD is the metered per-invocation price the
	// cost model charges for rendezvous endpoints (2016-era serverless
	// pricing, request fee plus API-gateway share).
	rendezvousInvocationUSD = 0.4e-6
)

// tunnelRelayIPs returns the resolver-pool addresses ("ip" only).
func tunnelRelayIPs() []string {
	return []string{"9.9.9.9", "1.1.1.1", "208.67.222.222"}[:tunnelRelays]
}

// accessLink returns the standard access-link configuration.
func accessLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: accessDelay, Bandwidth: accessBW}
}
