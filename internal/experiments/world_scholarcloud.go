package experiments

// The paper's own system: the ScholarCloud split proxy's wiring into the
// simulated world — remote proxy, domestic shard(s) and tier, the border
// hop (fleet or carrier ladder), MIIT registration — kept apart from the
// PPTP/OpenVPN/Tor/Shadowsocks set-up in world.go.

import (
	"fmt"
	"net"
	"time"

	"scholarcloud/internal/blinding"
	"scholarcloud/internal/cache"
	"scholarcloud/internal/carrier"
	"scholarcloud/internal/core"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/gfw"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/pac"
	"scholarcloud/internal/registry"
	"scholarcloud/internal/tier"
	"scholarcloud/internal/tlssim"
	"scholarcloud/internal/tunnel"
)

func (w *World) startScholarCloud() {
	if w.Cfg.Censor != nil {
		switch {
		case len(w.Cfg.Transports) > 0:
			panic("experiments: Censor is mutually exclusive with Transports — every censor region gets the full ladder")
		case w.Cfg.FleetRemotes > 0:
			panic("experiments: Censor is mutually exclusive with FleetRemotes")
		case w.Cfg.Shards > 1:
			panic("experiments: Censor is mutually exclusive with Shards")
		case w.Cfg.CacheMB > 0:
			panic("experiments: Censor worlds run the cacheless regional deployment (CacheMB must be 0)")
		case w.Cfg.FaultScenario != "":
			panic("experiments: Censor is mutually exclusive with FaultScenario — the policy owns the GFW episode state")
		}
		if err := w.Cfg.Censor.Validate(); err != nil {
			panic(err)
		}
	}
	if w.Cfg.Shards > 1 {
		if w.Cfg.FleetRemotes > 0 || len(w.Cfg.Transports) > 0 {
			panic("experiments: Shards is mutually exclusive with FleetRemotes and Transports")
		}
		if w.Cfg.CacheMB == 0 {
			panic("experiments: Shards needs CacheMB > 0 — the shard tier is a cache-peering tier")
		}
	}
	if w.Cfg.AutoscaleInitial > 0 {
		if w.Cfg.Shards <= 1 {
			panic("experiments: AutoscaleInitial needs Shards > 1 — the autoscaler grows a sharded tier")
		}
		if w.Cfg.AutoscaleInitial > w.Cfg.Shards {
			panic(fmt.Errorf("experiments: AutoscaleInitial (%d) exceeds provisioned Shards (%d)",
				w.Cfg.AutoscaleInitial, w.Cfg.Shards))
		}
		if !w.Cfg.ShardSiblingFetch {
			panic("experiments: AutoscaleInitial needs ShardSiblingFetch — warm-up and drain move keys over the sibling path")
		}
		if !w.Cfg.ShardRehashOnDeath {
			panic("experiments: AutoscaleInitial needs ShardRehashOnDeath — a standby shard must own no keys")
		}
	}

	w.Whitelist = pac.New(
		fmt.Sprintf("%s:%d", ipDomestic, portProxy),
		[]string{"scholar.google.com", "accounts.google.com"},
	)
	w.Remote = w.startRemote(w.SCRemoteHost)

	if w.Cfg.Censor != nil {
		// Every region runs its own proxy and border. A classic proxy
		// would serve no client here, yet its pool's probes would load the
		// remote the regions share.
		w.startCensorRegions()
		return
	}

	for i := 0; i < max(w.Cfg.Shards, 1); i++ {
		w.ShardAddrs = append(w.ShardAddrs, w.ShardAddr(i))
		w.startDomesticShard(i)
	}
	w.startTier()

	switch {
	case len(w.Cfg.Transports) > 0 && w.Cfg.FleetRemotes > 0:
		panic("experiments: Transports and FleetRemotes are mutually exclusive")
	case len(w.Cfg.Transports) > 0:
		w.startTransports()
	default:
		w.startFleet()
	}
}

// startRemote runs a remote proxy on host: the primary, and every extra
// fleet remote, is one of these.
func (w *World) startRemote(host *netsim.Host) *core.Remote {
	dial := w.dialHostFrom(host)
	cost := w.compute(host, scStreamCost)
	r := &core.Remote{
		Env: w.Env,
		DialHost: func(h string, p int) (net.Conn, error) {
			cost()
			return dial(h, p)
		},
		Secret:   w.scSecret,
		Epoch:    w.Cfg.BlindingEpoch,
		Identity: w.serverIDs["remote.scholarcloud.example"],
	}
	if w.Cfg.ScholarCloudNoBlinding {
		r.SchemeOverride = blinding.Identity{}
	}
	r.Instrument(w.Obs)
	ln, err := host.Listen("tcp", fmt.Sprintf(":%d", portSCRemote))
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { r.Serve(ln) })
	return r
}

// ShardAddr returns domestic shard i's proxy endpoint ("ip:port") — its
// name in the rendezvous ring and in the rendered PAC.
func (w *World) ShardAddr(i int) string {
	if i == 0 {
		return fmt.Sprintf("%s:%d", ipDomestic, portProxy)
	}
	return fmt.Sprintf("%s%d:%d", shardIPBase, 10+i, portProxy)
}

// startDomesticShard builds domestic shard i: its own host (shard 0 is
// the classic SCDomestic), Domestic proxy, content cache, and proxy
// listener. Shard 0 also serves the PAC file and stays reachable as
// w.Domestic/w.Cache; the paper's single proxy is a one-shard tier. The
// border hop is assembled afterwards (startFleet or startTransports).
func (w *World) startDomesticShard(i int) {
	host := w.SCDomestic
	if i > 0 {
		host = w.Net.AddHost(fmt.Sprintf("sc-domestic-%d", i),
			fmt.Sprintf("%s%d", shardIPBase, 10+i), w.CNNet, accessLink())
	}
	d := &core.Domestic{
		Env:          w.Env,
		Secret:       w.scSecret,
		Epoch:        w.Cfg.BlindingEpoch,
		Whitelist:    w.Whitelist,
		VerifyRemote: w.CA.Verifier(),
		RemoteName:   "remote.scholarcloud.example",
	}
	if w.Cfg.ScholarCloudNoBlinding {
		d.SchemeOverride = blinding.Identity{}
	}
	if w.Cfg.Resilience {
		d.Resil = &core.Resilience{Seed: w.Cfg.Seed ^ 0x4E51AE ^ uint64(i)<<40}
	}
	if w.Cfg.FaultScenario != "" || len(w.Cfg.Transports) > 0 {
		// Fault and transport-ladder worlds run clients in gateway mode
		// (see ScholarCloud); the proxy-side fetch path is what the
		// resilience layer retries and what the ladder reroutes.
		d.GatewayFetch = true
	}
	var cc *cache.Cache
	if w.Cfg.CacheMB > 0 {
		var err error
		cc, err = cache.New(w.Env, cache.Options{
			Capacity:   int64(w.Cfg.CacheMB) << 20,
			DefaultTTL: w.Cfg.CacheTTL,
			Seed:       w.Cfg.Seed ^ 0xCAC4E ^ uint64(i)*0x9E3779B97F4A7C15,
		})
		if err != nil {
			panic(err)
		}
		d.Cache = cc
	}
	if i == 0 {
		w.Domestic = d
		w.Cache = cc
	}
	d.Instrument(w.Obs)
	lnProxy, err := host.Listen("tcp", fmt.Sprintf(":%d", portProxy))
	if err != nil {
		panic(err)
	}
	proxy := d.Proxy()
	w.Env.Spawn.Go(func() { proxy.Serve(lnProxy) })

	if i == 0 {
		lnPAC, err := host.Listen("tcp", fmt.Sprintf(":%d", portPACWeb))
		if err != nil {
			panic(err)
		}
		pacSrv := &httpsim.Server{Handler: d.PACHandler(), Spawn: w.Env.Spawn}
		w.Env.Spawn.Go(func() { pacSrv.Serve(lnPAC) })
	}

	w.ShardHosts = append(w.ShardHosts, host)
	w.ShardDomestics = append(w.ShardDomestics, d)
	w.ShardCaches = append(w.ShardCaches, cc)
	w.shardProxies = append(w.shardProxies, proxy)
	if w.Cfg.Shards > 1 {
		// Per-shard visibility: the shared cache.* counters sum across the
		// tier; these gauges break hits, sibling fetches, and border
		// fetches out per shard.
		pfx := fmt.Sprintf("shard.s%d.", i)
		w.Obs.RegisterFunc(pfx+"cache.hits", func() int64 { return cc.Snapshot().Hits })
		w.Obs.RegisterFunc(pfx+"cache.sibling_fetches", func() int64 { return cc.Snapshot().SiblingFetches })
		w.Obs.RegisterFunc(pfx+"cache.border_fetches", func() int64 { return cc.Snapshot().BorderFetches })
	}
}

// KillShard takes domestic shard i down: its proxy listener dies (new
// user and sibling dials fail) and the tier coordinates the takedown —
// the dead shard's key range rehashes to survivors (ring policy
// permitting) and the PAC policy republishes so users route elsewhere.
func (w *World) KillShard(i int) {
	w.shardProxies[i].Close()
	w.Tier.MarkDown(w.ShardAddrs[i])
}

// startTier hands the provisioned shards — one, for the paper's single
// proxy — to the shared tier control plane. Every health transition
// republishes the live shard set into the PAC policy, so users' next
// evaluation (the refreshed PAC a real browser would re-download) routes
// only to survivors. With AutoscaleInitial set the standbys are parked
// and the control loop starts on the virtual clock, fed by SetDemand.
func (w *World) startTier() {
	members := make([]tier.Member, len(w.ShardAddrs))
	for i, addr := range w.ShardAddrs {
		members[i] = tier.Member{Addr: addr, Cache: w.ShardCaches[i], Dial: w.ShardHosts[i].Dial}
	}
	w.Tier = tier.New(members, w.Env.Clock.Now, w.Whitelist.SetProxies)
	w.Tier.Ring().SetRehashOnDeath(w.Cfg.ShardRehashOnDeath)
	w.Tier.Instrument(w.Obs)
	if w.Cfg.ShardSiblingFetch {
		w.Tier.Peer()
	}
	if w.Cfg.AutoscaleInitial == 0 {
		return
	}
	ctl, err := w.Tier.Autoscale(w.Cfg.AutoscaleInitial, w.Cfg.AutoscalePolicy, func() (float64, time.Duration) {
		w.demandMu.Lock()
		defer w.demandMu.Unlock()
		return w.demandSessions, w.demandP99
	})
	if err != nil {
		panic(err)
	}
	ctl.Instrument(w.Obs)
	w.Autoscaler = ctl
	w.Env.Spawn.Go(func() { ctl.Run(w.Env, w.Cfg.AutoscaleInterval) })
}

// SetDemand publishes the offered load the autoscaler samples: sessions
// per second arriving at the tier, plus the recent page-load p99 for the
// latency guard (0 = unknown). Measurements call it at load-phase
// boundaries; it is inert in non-autoscaled worlds.
func (w *World) SetDemand(sessionsPerSec float64, p99 time.Duration) {
	w.demandMu.Lock()
	w.demandSessions, w.demandP99 = sessionsPerSec, p99
	w.demandMu.Unlock()
}

// startTransports stands up the cover infrastructure for each configured
// carrier transport (blinded reuses the primary remote; the DNS tunnel
// and the rendezvous pool get their own US hosts fronting it), wires a
// carrier.Ladder over them as the fleet's escalation policy, and points
// the domestic proxy's hedge at the ladder's next rung.
func (w *World) startTransports() {
	primary := fmt.Sprintf("%s:%d", ipSCRemote, portSCRemote)
	wrap := w.Domestic.WrapCarrier

	var rungs []carrier.Transport
	for _, name := range w.Cfg.Transports {
		switch name {
		case carrier.Blinded:
			rungs = append(rungs, carrier.NewBlinded(
				func() (net.Conn, error) { return w.SCDomestic.DialTCP(primary) }, wrap))
		case carrier.Rendezvous:
			rungs = append(rungs, w.startRendezvous(wrap))
		case carrier.DNSTunnel:
			rungs = append(rungs, w.startDNSTunnel(wrap))
		default:
			panic(fmt.Errorf("experiments: unknown carrier transport %q (known: %v)",
				name, carrier.Known()))
		}
	}
	// The ladder world's probe cadence, dial bound and relaxed hedge
	// trigger are core's laddered-border tuning, applied by the assembly.
	pool, ladder, err := w.Domestic.AssembleBorder(core.Border{
		Rungs: rungs,
		Pool: fleet.Config{
			SessionsPerRemote: w.Cfg.FleetSessionsPerRemote,
			ReadmitBackoff:    fleetReadmitBackoff,
			Seed:              w.Cfg.Seed ^ 0x7EA45,
		},
	}, w.Obs)
	if err != nil {
		panic(err)
	}
	w.Fleet, w.Ladder = pool, ladder
}

// ensureGatewayPool stands up the rendezvous gateway pool — ephemeral
// TLS fronts in cloud space, each piping to the primary remote — the
// first time it is needed, and returns the pool's "ip:port" endpoints
// in order. The pool is US-side cover infrastructure shared by every
// consumer (the classic ladder, and each censor region's ladder).
func (w *World) ensureGatewayPool() []string {
	if len(w.gatewayIPs) == 0 {
		primary := fmt.Sprintf("%s:%d", ipSCRemote, portSCRemote)
		for i := 0; i < gatewayPoolSize; i++ {
			ip := fmt.Sprintf("%s%d", ipGatewayBase, 10+i)
			w.gatewayIPs = append(w.gatewayIPs, ip)
			host := w.Net.AddHost(fmt.Sprintf("rdv-gw-%d", i), ip, w.US, accessLink())
			ln, err := host.Listen("tcp", ":443")
			if err != nil {
				panic(err)
			}
			tln := tlssim.NewListener(ln, tlssim.Config{Certificate: []byte("rdv-gw-cert")})
			w.Env.Spawn.Go(func() {
				carrier.ServeGateway(w.Env, tln, func() (net.Conn, error) {
					return host.DialTCP(primary)
				})
			})
		}
	}
	endpoints := make([]string, len(w.gatewayIPs))
	for i, ip := range w.gatewayIPs {
		endpoints[i] = ip + ":443"
	}
	return endpoints
}

// newRendezvousRung builds a rendezvous transport dialing the shared
// gateway pool from h. salt separates the rotation streams of multiple
// consumers (zero for the classic single-ladder world, so its draws —
// and every historical figure — stay byte-identical).
func (w *World) newRendezvousRung(h *netsim.Host, wrap carrier.WrapFunc, salt uint64) *carrier.RendezvousPool {
	return carrier.NewRendezvous(carrier.RendezvousConfig{
		Env:       w.Env,
		Endpoints: w.ensureGatewayPool(),
		Dial:      func(addr string) (net.Conn, error) { return h.DialTCP(addr) },
		SNI:       rendezvousSNI,
		Wrap:      wrap,
		Seed:      w.Cfg.Seed ^ 0x4D5E2 ^ salt,
	})
}

// startRendezvous builds the serverless rendezvous rung for the classic
// single-border ladder — the CensorLess model, where blocking one
// address costs the censor nothing because the next invocation uses a
// fresh one.
func (w *World) startRendezvous(wrap carrier.WrapFunc) carrier.Transport {
	rdv := w.newRendezvousRung(w.SCDomestic, wrap, 0)
	rdv.Instrument(w.Obs)
	w.RendezvousCarrier = rdv
	return rdv
}

// ensureTunnelResolvers stands up the DNS tunnel's US-side cover
// infrastructure — an authoritative server for an innocuous zone
// fronting the primary remote, plus a pool of public recursive
// resolvers — the first time it is needed, and returns the resolver
// endpoints in order.
func (w *World) ensureTunnelResolvers() []string {
	if len(w.tunnelResolvers) == 0 {
		primary := fmt.Sprintf("%s:%d", ipSCRemote, portSCRemote)
		auth := w.Net.AddHost("tunnel-auth", ipTunnelAuth, w.US, accessLink())
		srv := carrier.NewTunnelServer(carrier.TunnelServerConfig{
			Env:     w.Env,
			Domain:  tunnelDomain,
			Backend: func() (net.Conn, error) { return auth.DialTCP(primary) },
		})
		apc, err := auth.ListenPacket(53)
		if err != nil {
			panic(err)
		}
		w.Env.Spawn.Go(func() { srv.Serve(apc) })

		for i, ip := range tunnelRelayIPs() {
			relay := w.Net.AddHost(fmt.Sprintf("resolver-%d", i), ip, w.US, accessLink())
			pc, err := relay.ListenPacket(53)
			if err != nil {
				panic(err)
			}
			w.Env.Spawn.Go(func() {
				carrier.ServeRelay(w.Env, pc, relay, ipTunnelAuth+":53", 3*time.Second)
			})
			w.tunnelResolvers = append(w.tunnelResolvers, ip+":53")
		}
	}
	return append([]string(nil), w.tunnelResolvers...)
}

// newTunnelRung builds a DNS-tunnel transport resolving through the
// shared relay pool from h. salt separates consumers' nonce streams
// (zero for the classic single-ladder world).
func (w *World) newTunnelRung(h *netsim.Host, wrap carrier.WrapFunc, salt uint64) *carrier.Tunnel {
	return carrier.NewTunnel(carrier.TunnelConfig{
		Env:       w.Env,
		Dialer:    h,
		Resolvers: w.ensureTunnelResolvers(),
		Domain:    tunnelDomain,
		Wrap:      wrap,
		Seed:      w.Cfg.Seed ^ 0xD4571 ^ salt,
	})
}

// startDNSTunnel builds the covert-channel rung for the classic
// single-border ladder: reached through public recursive resolvers the
// censor will not block wholesale.
func (w *World) startDNSTunnel(wrap carrier.WrapFunc) carrier.Transport {
	tun := w.newTunnelRung(w.SCDomestic, wrap, 0)
	tun.Instrument(w.Obs)
	w.TunnelCarrier = tun
	return tun
}

// startFleet stands up the extra remote proxies (endpoint 0 is the
// primary remote already started by startScholarCloud; FleetRemotes 0 and
// 1 are both the primary alone) and assembles every domestic shard's
// border over all of them — a managed pool dialed from the shard's own
// host.
func (w *World) startFleet() {
	w.fleetNameByIP = make(map[string]string)
	var addrs []string
	for i := 0; i < max(w.Cfg.FleetRemotes, 1); i++ {
		ip, addr := ipSCRemote, w.FleetRemoteAddr(i)
		if i > 0 {
			ip = fleetRemoteIP(i)
			host := w.Net.AddHost(fmt.Sprintf("sc-remote-%d", i), ip, w.US, accessLink())
			w.fleetRemoteHosts = append(w.fleetRemoteHosts, host)
			w.FleetRemoteProxies = append(w.FleetRemoteProxies, w.startRemote(host))
		}
		w.fleetNameByIP[ip] = addr
		addrs = append(addrs, addr)
	}

	for i, d := range w.ShardDomestics {
		host := w.ShardHosts[i]
		var eps []fleet.Endpoint
		for _, addr := range addrs {
			eps = append(eps, fleet.Endpoint{
				Name: addr,
				Dial: func() (net.Conn, error) { return host.DialTCP(addr) },
			})
		}
		// Dials are bounded iff Cfg.Resilience gave the proxy a policy (a
		// dead remote's SYNs otherwise stall the dialer for the full TCP
		// handshake-retry schedule); the assembly owns that rule. The
		// shards' pools sum under the shared fleet.* names, as their
		// core.domestic.* counters do.
		pool, _, err := d.AssembleBorder(core.Border{
			Remotes: eps,
			Pool: fleet.Config{
				SessionsPerRemote: w.Cfg.FleetSessionsPerRemote,
				ProbeInterval:     fleetProbeInterval,
				ProbeTimeout:      fleetProbeTimeout,
				ReadmitBackoff:    fleetReadmitBackoff,
				Seed:              w.Cfg.Seed ^ 0xF1EE7 ^ uint64(i)<<40,
			},
		}, w.Obs)
		if err != nil {
			panic(err)
		}
		if i == 0 {
			w.Fleet = pool
		}
	}
}

// FleetRemoteAddr returns fleet endpoint i's name ("ip:port").
func (w *World) FleetRemoteAddr(i int) string {
	if i == 0 {
		return fmt.Sprintf("%s:%d", ipSCRemote, portSCRemote)
	}
	return fmt.Sprintf("%s:%d", fleetRemoteIP(i), portSCRemote)
}

// TakedownFleetRemote models a physical seizure of fleet remote i: the
// listener and every established carrier die, and nothing notifies the
// domestic proxy — the pool's prober has to notice on its own. (The
// notified path — registry takedown or observed IP block — goes through
// Enforcement, which calls Fleet.MarkDown.)
func (w *World) TakedownFleetRemote(i int) {
	if i == 0 {
		w.Remote.Close()
		return
	}
	w.FleetRemoteProxies[i-1].Close()
}

// RestartFleetRemote brings a taken-down fleet remote back up: a fresh
// listener on the same address, served by the same Remote (whose old
// listener and carrier sessions the takedown killed). The domestic proxy
// is not notified — the pool's prober has to re-admit the endpoint on its
// own, exactly as it had to notice the crash.
func (w *World) RestartFleetRemote(i int) {
	host, r := w.SCRemoteHost, w.Remote
	if i > 0 {
		host, r = w.fleetRemoteHosts[i-1], w.FleetRemoteProxies[i-1]
	}
	ln, err := host.Listen("tcp", fmt.Sprintf(":%d", portSCRemote))
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { r.Serve(ln) })
}

// registerScholarCloud records the service in the MIIT database — the
// "legal avenue" — and wires MPS/MSS takedowns to the GFW's IP blocklist.
func (w *World) registerScholarCloud() {
	w.Registry = registry.NewDatabase()
	w.Enforcement = registry.NewEnforcement(w.Registry, w.Env.Clock, 24*time.Hour)
	w.Enforcement.OnBlock(func(ip string) {
		if w.GFW != nil {
			w.GFW.Apply(gfw.Policy{BlockIPs: []string{ip}})
		}
		// An enforcement block against a fleet remote rotates traffic off
		// it immediately instead of leaving the pools to discover 15-second
		// blackhole hangs.
		if name, ok := w.fleetNameByIP[ip]; ok {
			for _, d := range w.ShardDomestics {
				d.Fleet.MarkDown(name, "enforcement block of "+ip)
			}
		}
	})
	endpointIPs := []string{ipDomestic, ipSCRemote}
	for i := 1; i < w.Cfg.FleetRemotes; i++ {
		endpointIPs = append(endpointIPs, fleetRemoteIP(i))
	}
	for i := 1; i < w.Cfg.Shards; i++ {
		// Every domestic shard is a registered endpoint of the legal
		// service, like the fleet remotes.
		endpointIPs = append(endpointIPs, fmt.Sprintf("%s%d", shardIPBase, 10+i))
	}
	tca := registry.NewTCA("Beijing", w.Registry, w.Env.Clock, 0 /* verified before the study window */)
	pending, err := tca.Submit(registry.Application{
		ServiceName:       "ScholarCloud",
		ServiceType:       registry.ServiceWebProxy,
		Domain:            "scholar.thucloud.com",
		ResponsiblePerson: "legal representative",
		Documents:         []string{registry.DocBiometric, registry.DocServiceDoc, registry.DocUserGuide},
		Whitelist:         w.Whitelist.Domains(),
		EndpointIPs:       endpointIPs,
	})
	if err != nil {
		panic(err)
	}
	// Await through the gate so the verification wait — the only virtual
	// time that passes during construction — happens at a fixed point in
	// the world's Run sequence.
	if err := w.Run(func() error { pending.Await(); return nil }); err != nil {
		panic(err)
	}
}

// RotateBlinding rotates ScholarCloud's blinding scheme on both proxies —
// the paper's agility claim. Every remote and every domestic shard
// rotates, and each pool's pre-dialed carriers are recycled under the new
// scheme.
func (w *World) RotateBlinding(epoch uint64) {
	w.Remote.SetEpoch(epoch)
	for _, r := range w.FleetRemoteProxies {
		r.SetEpoch(epoch)
	}
	for _, d := range w.ShardDomestics {
		d.Rotate(epoch)
	}
}

// ScholarCloud returns the PAC-configured browser stack on host h. When
// the world's domestic proxy runs a shared cache, clients use HTTPS-
// gateway mode so the cache sees (and can serve) their requests. Fault
// worlds use gateway mode too: there the domestic proxy owns each
// upstream fetch, which is what lets the resilience layer retry or
// hedge it — and gives the resilience-off baseline the same fetch path
// to fail on.
func (w *World) ScholarCloud(h *netsim.Host) tunnel.Method {
	return &core.ClientStack{
		Env:          w.Env,
		Dial:         h.Dial,
		PAC:          w.Whitelist,
		Resolver:     w.resolverFor(h),
		GatewayHTTPS: w.Cfg.CacheMB > 0 || w.Cfg.FaultScenario != "" || len(w.Cfg.Transports) > 0,
		// The client's own address — what myIpAddress() reports to the
		// PAC file — selects its shard in a sharded tier.
		ClientIP: h.IP(),
	}
}
