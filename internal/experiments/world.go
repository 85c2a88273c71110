package experiments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"scholarcloud/internal/autoscale"
	"scholarcloud/internal/cache"
	"scholarcloud/internal/carrier"
	"scholarcloud/internal/censor"
	"scholarcloud/internal/core"
	"scholarcloud/internal/dnssim"
	"scholarcloud/internal/faults"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/gfw"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/openvpn"
	"scholarcloud/internal/pac"
	"scholarcloud/internal/pki"
	"scholarcloud/internal/registry"
	"scholarcloud/internal/shadowsocks"
	"scholarcloud/internal/tier"
	"scholarcloud/internal/tlssim"
	"scholarcloud/internal/tor"
	"scholarcloud/internal/tunnel"
	"scholarcloud/internal/vpn"
)

// Config adjusts the world for ablations; the zero value (plus a seed)
// reproduces the paper's setting.
type Config struct {
	Seed uint64
	// DisableGFW removes the censor entirely (an uncensored baseline).
	DisableGFW bool
	// BlindingEpoch selects ScholarCloud's blinding scheme; rotation
	// ablations change it on the fly via RotateBlinding.
	BlindingEpoch uint64
	// ScholarCloudNoBlinding disables message blinding on the inter-proxy
	// tunnel (the ablation showing why blinding matters).
	ScholarCloudNoBlinding bool
	// SSKeepAlive overrides Shadowsocks' 10 s keep-alive.
	SSKeepAlive time.Duration
	// DisableServerCosts zeroes the per-request server CPU model (used
	// by unit tests that only care about protocol correctness).
	DisableServerCosts bool
	// FleetRemotes is how many remote proxies the domestic proxy's
	// internal/fleet pool manages (health probing, load balancing,
	// takedown-aware rotation). Zero and one are the same world: the
	// paper's single remote as a one-member pool. The world stays
	// deterministic either way (probe timers only fire inside Run
	// windows).
	FleetRemotes int
	// FleetSessionsPerRemote sizes each remote's pre-dialed carrier pool
	// (zero selects the fleet package default).
	FleetSessionsPerRemote int
	// RunGuard overrides Run's wall-clock deadlock guard (default 120 s).
	// The parallel experiment harness raises it: a heavy cell sharing a
	// core with other worlds can exceed the default without being stuck.
	RunGuard time.Duration
	// CacheMB, when > 0, gives ScholarCloud's domestic proxy a shared
	// content cache with that byte budget (internal/cache) and switches
	// its clients to HTTPS-gateway mode so cacheable traffic is visible
	// to it. Zero keeps the paper's cacheless deployment.
	CacheMB int
	// CacheTTL overrides the cache's heuristic freshness lifetime (zero
	// selects the cache package default).
	CacheTTL time.Duration
	// FaultScenario, when non-empty, arms a scripted fault scheduler
	// (internal/faults) against the border link, the GFW's episode state,
	// and the fleet remotes. The name must be a faults.Script scenario;
	// the script executes on the virtual clock once a measurement calls
	// World.InjectFaults. Empty keeps the healthy world — and every
	// historical figure — byte-identical.
	FaultScenario string
	// Resilience enables the domestic proxy's client-path resilience
	// layer (per-dial and per-request deadlines, reconnect backoff with
	// deterministic jitter, hedged retry on a second carrier) and bounds
	// fleet carrier dials. Off by default: the historical fail-fast
	// behaviour is the resilience-off baseline the faults figure measures
	// against.
	Resilience bool
	// Transports, when non-empty, replaces the domestic proxy's plain
	// remote pool with an escalation ladder (internal/carrier) over the
	// named transports, in ladder order — fastest and most blockable
	// first. Valid names are carrier.Blinded, carrier.Rendezvous, and
	// carrier.DNSTunnel; each gets its own cover infrastructure in the US
	// zone and a transport-labeled fleet endpoint. Mutually exclusive
	// with FleetRemotes. Empty keeps the paper's single blinded transport.
	Transports []string
	// Shards, when > 1, runs the domestic tier as that many proxy shards
	// (shard 0 on the classic SCDomestic host, the rest on their own
	// CNNet hosts) behind a multi-proxy PAC that rendezvous-hashes each
	// user onto a shard. Requires CacheMB > 0 (the peering tier is a
	// cache tier) and is mutually exclusive with FleetRemotes and
	// Transports. Zero or one keeps the paper's single proxy — and every
	// historical figure — byte-identical.
	Shards int
	// ShardSiblingFetch wires the shards' caches into a peering mesh:
	// consistent-hash key ownership, with a local miss fetched from the
	// owning peer (one border crossing per object for the whole tier)
	// instead of across the border. Off: each shard fetches for itself.
	ShardSiblingFetch bool
	// ShardRehashOnDeath controls the takedown policy: on, a dead
	// shard's key range rehashes to survivors; off (the ablation), key
	// ownership stays pinned and orphaned keys fall back to border
	// fetches.
	ShardRehashOnDeath bool
	// AutoscaleInitial, when > 0, starts the shard tier with only the
	// first AutoscaleInitial shards active: the remaining Shards-
	// AutoscaleInitial are fully provisioned (host, proxy, cache,
	// listener) but marked down in the ring — standbys the autoscale
	// controller admits mid-run with cache warm-up, and retires again
	// with key handoff. Requires Shards > 1, ShardSiblingFetch (warm-up
	// and drain move keys over the sibling path), and ShardRehashOnDeath
	// (a standby must own no keys). Zero disables autoscaling and keeps
	// every historical figure byte-identical.
	AutoscaleInitial int
	// AutoscalePolicy tunes the controller when AutoscaleInitial > 0.
	// Zero fields default: MinShards to AutoscaleInitial, MaxShards to
	// Shards, the rest to the autoscale package defaults.
	AutoscalePolicy autoscale.Policy
	// AutoscaleInterval is the control loop's sampling cadence (default
	// 15 s — virtual seconds, so ticks land at seed-determined instants).
	AutoscaleInterval time.Duration
	// Censor, when non-nil, builds a multi-border world: each border in
	// the policy gets its own client region, its own border link into the
	// US zone, its own gfw.GFW instance (seeded independently), and its
	// own domestic proxy with a full carrier escalation ladder. The
	// policy's scripted stages and adaptive controllers run on the
	// virtual clock once MeasureCensorship arms them. Mutually
	// exclusive with Transports, FleetRemotes, Shards, CacheMB and
	// FaultScenario. Nil keeps the single-border world — and every
	// historical figure — byte-identical.
	Censor *censor.Policy
}

// World is the assembled simulated internet of §4.2.
type World struct {
	Cfg Config
	Net *netsim.Network
	Env netx.Env
	GFW *gfw.GFW

	// Obs aggregates every layer's counters (network, censor, tunnel,
	// fleet, browser); snapshot it before/after a measurement to attribute
	// activity to that measurement.
	Obs *obs.Registry

	Cernet, CNNet, US, EU *netsim.Zone

	Client *netsim.Host

	ScholarHost  *netsim.Host
	AccountsHost *netsim.Host
	MirrorHost   *netsim.Host
	DNSHost      *netsim.Host
	TsinghuaHost *netsim.Host

	VPNHost      *netsim.Host
	OpenVPNHost  *netsim.Host
	SSHost       *netsim.Host
	SCRemoteHost *netsim.Host
	SCDomestic   *netsim.Host
	FrontHost    *netsim.Host
	MiddleHost   *netsim.Host
	ExitHost     *netsim.Host

	Origin    *httpsim.ScholarOrigin
	CA        *pki.CA
	SSServer  *shadowsocks.Server
	Remote    *core.Remote
	Domestic  *core.Domestic
	Whitelist *pac.Config

	// Border is the CNNet↔US link every cross-border packet traverses;
	// its Stats isolate border traffic (what the GFW sees and what the
	// shared cache is meant to eliminate).
	Border *netsim.LinkHandle
	// Cache is the domestic proxy's shared content cache when
	// Cfg.CacheMB > 0 (nil otherwise).
	Cache *cache.Cache

	// Fleet is the classic proxy's remote pool (Domestic.Fleet: one
	// member per fleet remote, or one per ladder rung). FleetRemoteProxies
	// holds the extra remotes beyond the primary, indexed
	// 1..FleetRemotes-1 by their takedown index.
	Fleet              *fleet.Pool
	FleetRemoteProxies []*core.Remote
	fleetRemoteHosts   []*netsim.Host
	fleetNameByIP      map[string]string

	// Ladder is the carrier escalation policy when Cfg.Transports is
	// non-empty (nil otherwise). TunnelCarrier/RendezvousCarrier hold
	// the corresponding transports when configured; gatewayIPs lists the
	// rendezvous gateway pool addresses in order (the censor-stage knobs
	// block prefixes of it).
	Ladder            *carrier.Ladder
	TunnelCarrier     *carrier.Tunnel
	RendezvousCarrier *carrier.RendezvousPool
	gatewayIPs        []string

	// The domestic tier, index i is shard i; the paper's single proxy is
	// a one-shard tier (ShardHosts[0] == SCDomestic, ShardDomestics[0] ==
	// Domestic, ShardCaches[0] == Cache, nil without CacheMB). Censor
	// worlds have no classic tier — every Region runs its own proxy — so
	// these, Domestic, Cache, Fleet and Tier are empty there. ShardAddrs
	// are the proxy "ip:port" endpoints — the shard names the Ring hashes
	// over and the PAC file renders.
	ShardHosts     []*netsim.Host
	ShardDomestics []*core.Domestic
	ShardCaches    []*cache.Cache
	ShardAddrs     []string
	shardProxies   []*httpsim.Proxy
	// Tier is the domestic tier's control plane (ring, health
	// transitions, cache peering, warm-up admit, draining retire) over
	// ShardAddrs — a one-member tier for the paper's single proxy. It is
	// the same orchestration the real-socket DomesticTier and a
	// multi-process shard run, here on the virtual clock.
	Tier *tier.Tier

	// Autoscaler is the tier's scaling control loop when
	// Cfg.AutoscaleInitial > 0 (nil otherwise). Measurements feed it the
	// offered-load signal through SetDemand.
	Autoscaler *autoscale.Controller

	demandMu       sync.Mutex
	demandSessions float64 // sessions/sec offered to the tier
	demandP99      time.Duration

	// Faults is the armed fault scheduler when Cfg.FaultScenario is set
	// (nil otherwise). Measurements start it with InjectFaults.
	Faults *faults.Scheduler

	// Regions holds the per-border deployments when Cfg.Censor is set
	// (nil otherwise), in policy order. MeasureCensorship arms the
	// policy's schedules and controllers inside its own Run.
	Regions         []*Region
	censorArmed     bool
	tunnelResolvers []string

	// Registry models the non-technical agencies; ScholarCloud is
	// registered at world construction (instantly — the weeks-long
	// verification is exercised separately in registry tests).
	Registry    *registry.Database
	Enforcement *registry.Enforcement

	clientSerial int
	taKey        []byte
	ssPassword   string
	vpnSecret    string
	scSecret     []byte
	serverIDs    map[string]*pki.Identity

	// runCh feeds the gate goroutine (see NewWorld). While no Run is in
	// flight the gate holds the scheduler's run token blocked on this
	// channel, freezing virtual time, so recurring timers (fleet probes)
	// only ever fire inside Run windows — at virtual instants that are a
	// pure function of the world's inputs, never of wall-clock scheduling.
	runCh     chan runReq
	closeOnce sync.Once
}

type runReq struct {
	fn   func() error
	done chan error
}

// NewWorld builds the topology, starts every server, and returns the
// ready world. Call Close when done.
func NewWorld(cfg Config) *World {
	if cfg.Seed == 0 {
		cfg.Seed = 2017
	}
	w := &World{
		Cfg:        cfg,
		taKey:      []byte("scholarcloud-ta-static-key"),
		ssPassword: "barfoo!2016",
		vpnSecret:  "campus-vpn-secret",
		scSecret:   []byte("scholarcloud-blinding-secret"),
		serverIDs:  make(map[string]*pki.Identity),
	}
	w.Obs = obs.NewRegistry()
	w.Net = netsim.New(cfg.Seed)
	w.Net.Observe(w.Obs)
	w.Env = w.Net.Env()

	// The gate is the world's very first managed goroutine, so the FIFO
	// run queue hands it the token before anything started below can run.
	// It idles blocked on runCh while HOLDING the token, which freezes
	// virtual time between Run calls: everything the constructors spawn
	// (servers, fleet warmers, probe loops) queues up and executes only
	// inside Run windows, in enqueue order. That makes the entire world —
	// including fleet worlds with recurring probe timers — a deterministic
	// function of (seed, sequence of Run calls).
	w.runCh = make(chan runReq)
	w.Net.Scheduler().Go(func() {
		for req := range w.runCh {
			req.done <- req.fn()
		}
	})

	// --- Topology -------------------------------------------------------
	w.Cernet = w.Net.AddZone("cernet")
	w.CNNet = w.Net.AddZone("cn-net")
	w.US = w.Net.AddZone("us-west")
	w.EU = w.Net.AddZone("eu")

	w.Net.Connect(w.Cernet, w.CNNet, netsim.LinkConfig{Delay: cnBackboneDelay, Bandwidth: 10 * accessBW})
	border := w.Net.Connect(w.CNNet, w.US, netsim.LinkConfig{
		Delay:     borderDelay,
		Bandwidth: 10 * accessBW,
		BaseLoss:  borderLoss,
		Jitter:    borderJitter,
	})
	w.Net.Connect(w.US, w.EU, netsim.LinkConfig{Delay: euDelay, Bandwidth: 10 * accessBW, BaseLoss: 0.0005, Jitter: borderJitter / 2})
	w.Border = border
	w.Obs.RegisterFunc("netsim.border.packets", func() int64 { return border.Stats().Packets })
	w.Obs.RegisterFunc("netsim.border.bytes", func() int64 { return border.Stats().Bytes })

	// --- Hosts -----------------------------------------------------------
	add := func(name, ip string, z *netsim.Zone) *netsim.Host {
		return w.Net.AddHost(name, ip, z, accessLink())
	}
	w.Client = add("client", ipClient, w.Cernet)
	w.TsinghuaHost = add("tsinghua-web", ipTsinghua, w.Cernet)
	w.SCDomestic = add("sc-domestic", ipDomestic, w.CNNet)
	prober := add("gfw-prober", ipProber, w.CNNet)

	w.DNSHost = add("dns", ipDNS, w.US)
	w.ScholarHost = add("scholar", ipScholar, w.US)
	w.AccountsHost = add("accounts", ipAccounts, w.US)
	w.MirrorHost = add("scholar-mirror", ipMirror, w.US)
	w.VPNHost = add("vpn-server", ipVPN, w.US)
	w.OpenVPNHost = add("openvpn-server", ipOpenVPN, w.US)
	w.SSHost = add("ss-server", ipSS, w.US)
	w.SCRemoteHost = add("sc-remote", ipSCRemote, w.US)
	w.FrontHost = add("meek-front", ipMeekFront, w.US)
	w.ExitHost = add("tor-exit", ipTorExit, w.US)
	w.MiddleHost = add("tor-middle", ipTorMiddle, w.EU)

	// --- The GFW ---------------------------------------------------------
	if !cfg.DisableGFW {
		w.GFW = gfw.New(gfw.Config{
			Network:             w.Net,
			Zone:                w.CNNet,
			Clock:               w.Env.Clock,
			Spawn:               w.Env.Spawn,
			BlockedDomains:      []string{"google.com", "facebook.com", "twitter.com", "youtube.com"},
			BlockedIPs:          []string{ipScholar, ipAccounts},
			PoisonIP:            "37.61.54.158",
			MeekFronts:          []string{meekFrontSNI},
			MeekLossRate:        gfwMeekLoss,
			ShadowsocksLossRate: gfwShadowsocksLoss,
			ProbeDelay:          gfwProbeDelay,
			ProbeFrom:           prober,
			Seed:                cfg.Seed ^ 0x6F57AA11,
		})
		w.GFW.Instrument(w.Obs)
		border.SetInspector(w.GFW)
	}

	// --- PKI -------------------------------------------------------------
	ca, err := pki.NewCA("ScholarCloud Reproduction Root CA", w.Env.Clock.Now, w.Env.Rand)
	if err != nil {
		panic(err)
	}
	w.CA = ca
	for _, name := range []string{"openvpn.example", "remote.scholarcloud.example"} {
		id, err := ca.Issue(name, true)
		if err != nil {
			panic(err)
		}
		w.serverIDs[name] = id
	}

	w.startDNS()
	w.startOrigins()
	w.startVPN()
	w.startOpenVPN()
	w.startShadowsocks()
	w.startTor()
	w.startScholarCloud()
	w.registerScholarCloud()

	if cfg.FaultScenario != "" {
		script, ok := faults.Script(cfg.FaultScenario)
		if !ok {
			panic(fmt.Errorf("experiments: unknown fault scenario %q (known: %v)",
				cfg.FaultScenario, faults.Scenarios()))
		}
		w.Faults = faults.New(faults.Config{
			Env:  w.Env,
			Link: w.Border,
			GFW:  w.GFW,
			CrashRemote: func(i int) {
				if i == 0 || i-1 < len(w.FleetRemoteProxies) {
					w.TakedownFleetRemote(i)
				}
			},
			RestartRemote: func(i int) {
				if i == 0 || i-1 < len(w.FleetRemoteProxies) {
					w.RestartFleetRemote(i)
				}
			},
			Seed: cfg.Seed ^ 0xFA0175,
		}, script)
		w.Faults.Instrument(w.Obs)
	}
	return w
}

// InjectFaults starts the configured fault script on the virtual clock,
// with event offsets measured from now. No-op without a FaultScenario;
// idempotent, so a measurement can arm faults unconditionally at its
// start.
func (w *World) InjectFaults() { w.Faults.Inject() }

// Close stops the simulation. It retires the gate goroutine first so the
// scheduler is not stopped out from under a token holder.
func (w *World) Close() {
	w.closeOnce.Do(func() {
		close(w.runCh)
		w.Net.Stop()
	})
}

// Run executes fn on the world's gate goroutine and waits for it (with a
// wall-clock guard against simulation deadlock). Runs are serialized;
// virtual time only advances while one is in flight.
func (w *World) Run(fn func() error) error {
	guard := w.Cfg.RunGuard
	if guard <= 0 {
		guard = 120 * time.Second
	}
	t := time.NewTimer(guard)
	defer t.Stop()
	done := make(chan error, 1)
	select {
	case w.runCh <- runReq{fn: fn, done: done}:
	case <-t.C:
		// The gate never came back from a previous Run — the world is
		// wedged; callers must Close it, not retry.
		return fmt.Errorf("experiments: simulation did not complete (wall-clock guard)")
	}
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("experiments: simulation did not complete (wall-clock guard)")
	}
}

// snapshotSettle is how much virtual time SnapshotSettled lets pass before
// reading the registry. Every event a measurement left in flight (GFW
// active probes, connection teardown, keep-alive expiry) is scheduled
// within a few virtual seconds, so a generous window drains them all.
const snapshotSettle = 60 * time.Second

// SnapshotSettled captures the world's metrics at a deterministic virtual
// instant: it sleeps out a settle window inside a Run — letting every
// event the preceding measurement left pending fire in virtual-clock
// order — and snapshots at its end. Because virtual time is frozen
// outside Run windows (see the gate in NewWorld), the result depends only
// on the seed and the sequence of Runs so far, never on wall-clock
// scheduling — even for fleet worlds with recurring probe timers. That
// property is what lets the parallel harness merge per-world snapshots
// into a worker-count-independent aggregate.
func (w *World) SnapshotSettled() (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := w.Run(func() error {
		w.Env.Clock.Sleep(snapshotSettle)
		snap = w.Obs.Snapshot()
		return nil
	})
	return snap, err
}

// newBrowser builds a browser on method m wired into the world's metrics
// registry, so every figure's page loads feed the http.* counters and
// histograms.
func (w *World) newBrowser(m tunnel.Method) *httpsim.Browser {
	b := httpsim.NewBrowser(m, w.Env.Clock)
	b.Instrument(w.Obs)
	return b
}

// installTrace points every instrumented layer at t (nil detaches).
func (w *World) installTrace(t *obs.Trace) {
	w.Net.SetFlowTrace(t)
	if w.GFW != nil {
		w.GFW.SetTrace(t)
	}
	for _, d := range w.ShardDomestics {
		d.SetTrace(t)
		d.Fleet.SetTrace(t)
	}
	w.Remote.SetTrace(t)
	for _, r := range w.FleetRemoteProxies {
		r.SetTrace(t)
	}
	w.Faults.SetTrace(t)
}

// TracePageLoad performs one first-time page load through f with a flow
// tracer attached to every layer — network, censor, tunnel core, fleet,
// browser — and returns the recorded spans alongside the visit stats.
// The tracer is detached afterwards so later measurements run untraced.
func (w *World) TracePageLoad(f Factory) (*obs.Trace, *httpsim.VisitStats, error) {
	tr := obs.NewTrace(w.Env.Clock)
	w.installTrace(tr)
	defer w.installTrace(nil)
	var stats *httpsim.VisitStats
	err := w.Run(func() error {
		method := f.New(w.Client)
		defer method.Close()
		if err := prepare(method); err != nil {
			return fmt.Errorf("%s prepare: %w", f.Name, err)
		}
		b := w.newBrowser(method)
		b.SetTrace(tr)
		stats = b.Visit(f.URL)
		if stats.Failed {
			return fmt.Errorf("%s traced visit: %w", f.Name, stats.Err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return tr, stats, nil
}

// NewClientHost creates an additional client machine in CERNET for
// concurrency experiments.
func (w *World) NewClientHost() *netsim.Host {
	w.clientSerial++
	return w.Net.AddHost(
		fmt.Sprintf("client-%d", w.clientSerial),
		fmt.Sprintf("10.3.1.%d", w.clientSerial%250+1),
		w.Cernet, accessLink())
}

// resolverFor builds a caching resolver on a host pointed at the public
// DNS server.
func (w *World) resolverFor(h *netsim.Host) *dnssim.Resolver {
	return dnssim.NewResolver(h, w.Env.Clock, ipDNS+":53")
}

// dialHostFrom returns a DialHost that resolves names on h (used by all
// the *servers*, which live outside the censored network).
func (w *World) dialHostFrom(h *netsim.Host) func(string, int) (net.Conn, error) {
	resolver := w.resolverFor(h)
	return func(host string, port int) (net.Conn, error) {
		ip := host
		if net.ParseIP(host) == nil {
			r, err := resolver.Lookup(host)
			if err != nil {
				return nil, err
			}
			ip = r
		}
		return h.DialTCP(fmt.Sprintf("%s:%d", ip, port))
	}
}

func (w *World) startDNS() {
	server := dnssim.NewServer(map[string]string{
		"scholar.google.com":          ipScholar,
		"accounts.google.com":         ipAccounts,
		"scholar-mirror.example":      ipMirror,
		"www.tsinghua.edu.cn":         ipTsinghua,
		meekFrontSNI:                  ipMeekFront,
		"vpn.example":                 ipVPN,
		"openvpn.example":             ipOpenVPN,
		"ss.example":                  ipSS,
		"remote.scholarcloud.example": ipSCRemote,
		"proxy.thucloud.com":          ipDomestic,
	})
	pc, err := w.DNSHost.ListenPacket(53)
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { server.Serve(pc) })
}

// startOrigins launches Scholar (with Fig. 4 semantics), its accounts
// host, an uncensored mirror (the paper's US-vantage baseline), the
// domestic Tsinghua site, and echo services for RTT measurement.
func (w *World) startOrigins() {
	w.Origin = httpsim.NewScholarOrigin("scholar.google.com", "accounts.google.com", scholarPage())

	serveHTTP := func(h *netsim.Host, port int, handler httpsim.Handler) {
		ln, err := h.Listen("tcp", fmt.Sprintf(":%d", port))
		if err != nil {
			panic(err)
		}
		srv := &httpsim.Server{Handler: handler, Spawn: w.Env.Spawn}
		w.Env.Spawn.Go(func() { srv.Serve(ln) })
	}
	serveHTTPS := func(h *netsim.Host, port int, handler httpsim.Handler, cert string) {
		ln, err := h.Listen("tcp", fmt.Sprintf(":%d", port))
		if err != nil {
			panic(err)
		}
		srv := &httpsim.Server{Handler: handler, Spawn: w.Env.Spawn}
		w.Env.Spawn.Go(func() {
			srv.Serve(tlssim.NewListener(ln, tlssim.Config{Certificate: []byte(cert)}))
		})
	}

	serveHTTP(w.ScholarHost, 80, w.Origin.RedirectHandler())
	serveHTTPS(w.ScholarHost, 443, w.Origin.Handler(), "scholar-cert")
	serveHTTPS(w.AccountsHost, 443, w.Origin.AccountsHandler(), "accounts-cert")

	// A volunteer-run Scholar mirror under an innocuous name on an IP the
	// GFW has not blacklisted — the Free-Gate-style "other methods" of
	// Fig. 3. Its name dodges the keyword filter; its IP survives only
	// until someone reports it (whack-a-mole).
	mirrorAlt := httpsim.NewScholarOrigin(mirrorAltName, mirrorAltName, scholarPage())
	unblocked := w.Net.AddHost("volunteer-mirror", ipUnblockedGoogle, w.US, accessLink())
	serveHTTP(unblocked, 80, mirrorAlt.RedirectHandler())
	serveHTTPS(unblocked, 443, mirrorAlt.CombinedHandler(), "volunteer-cert")

	// The mirror serves the identical page without blocking: the paper's
	// "direct access from the US" baseline for traffic and PLR.
	mirror := httpsim.NewScholarOrigin("scholar-mirror.example", "scholar-mirror.example", scholarPage())
	serveHTTP(w.MirrorHost, 80, mirror.RedirectHandler())
	serveHTTPS(w.MirrorHost, 443, mirror.CombinedHandler(), "mirror-cert")

	// Domestic site for the full-tunnel latency-penalty experiment.
	tsinghua := httpsim.NewScholarOrigin("www.tsinghua.edu.cn", "www.tsinghua.edu.cn", scholarPage())
	serveHTTP(w.TsinghuaHost, 80, tsinghua.RedirectHandler())
	serveHTTPS(w.TsinghuaHost, 443, tsinghua.CombinedHandler(), "tsinghua-cert")

	// Echo services for tunnel RTT probes (Fig. 5b).
	for _, h := range []*netsim.Host{w.ScholarHost, w.MirrorHost, w.TsinghuaHost} {
		ln, err := h.Listen("tcp", fmt.Sprintf(":%d", portEcho))
		if err != nil {
			panic(err)
		}
		w.Env.Spawn.Go(func() { serveEcho(w.Env, ln) })
	}
}

func serveEcho(env netx.Env, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		env.Spawn.Go(func() {
			defer conn.Close()
			buf := make([]byte, 4096)
			for {
				n, err := conn.Read(buf)
				if n > 0 {
					if _, werr := conn.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		})
	}
}

// compute returns a per-request CPU charge on host h, or a no-op when the
// server cost model is disabled.
func (w *World) compute(h *netsim.Host, d time.Duration) func() {
	if w.Cfg.DisableServerCosts {
		return func() {}
	}
	return func() { h.Compute(d) }
}

func (w *World) startVPN() {
	dial := w.dialHostFrom(w.VPNHost)
	cost := w.compute(w.VPNHost, vpnStreamCost)
	srv := &vpn.Server{
		Env: w.Env,
		DialHost: func(host string, port int) (net.Conn, error) {
			cost()
			return dial(host, port)
		},
		Secret:  w.vpnSecret,
		Variant: vpn.PPTP,
	}
	ln, err := w.VPNHost.Listen("tcp", fmt.Sprintf(":%d", portVPN))
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { srv.Serve(ln) })

	// The L2TP variant listens one port up.
	srvL2TP := &vpn.Server{
		Env: w.Env,
		DialHost: func(host string, port int) (net.Conn, error) {
			cost()
			return dial(host, port)
		},
		Secret:  w.vpnSecret,
		Variant: vpn.L2TP,
	}
	lnL, err := w.VPNHost.Listen("tcp", fmt.Sprintf(":%d", portVPN+1))
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { srvL2TP.Serve(lnL) })
}

func (w *World) startOpenVPN() {
	dial := w.dialHostFrom(w.OpenVPNHost)
	cost := w.compute(w.OpenVPNHost, ovpnStreamCost)
	srv := &openvpn.Server{
		Env: w.Env,
		DialHost: func(host string, port int) (net.Conn, error) {
			cost()
			return dial(host, port)
		},
		TAKey:        w.taKey,
		Identity:     w.serverIDs["openvpn.example"],
		VerifyClient: w.CA.Verifier(),
	}
	ln, err := w.OpenVPNHost.Listen("tcp", fmt.Sprintf(":%d", portOpenVPN))
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { srv.Serve(ln) })
}

func (w *World) startShadowsocks() {
	dial := w.dialHostFrom(w.SSHost)
	w.SSServer = &shadowsocks.Server{
		Env:      w.Env,
		DialHost: dial,
		Password: w.ssPassword,
		Users:    map[string]bool{"scholar:pass2016": true},
		OnAuth:   w.compute(w.SSHost, ssAuthCost),
		OnRelay:  w.compute(w.SSHost, ssRelayCost),
	}
	ln, err := w.SSHost.Listen("tcp", fmt.Sprintf(":%d", portSS))
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { w.SSServer.Serve(ln) })
}

func (w *World) startTor() {
	exitDial := w.dialHostFrom(w.ExitHost)
	exit := &tor.Relay{
		Env:      w.Env,
		Name:     "exit",
		Dial:     w.ExitHost.Dial,
		DialHost: exitDial,
		Cert:     []byte("tor-exit-cert"),
	}
	lnExit, err := w.ExitHost.Listen("tcp", ":9001")
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { exit.Serve(lnExit) })

	middle := &tor.Relay{
		Env:  w.Env,
		Name: "middle",
		Dial: w.MiddleHost.Dial,
		Cert: []byte("tor-middle-cert"),
	}
	lnMiddle, err := w.MiddleHost.Listen("tcp", ":9001")
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { middle.Serve(lnMiddle) })

	bridge := &tor.Relay{
		Env:  w.Env,
		Name: "bridge",
		Dial: w.FrontHost.Dial,
		Directory: func() []byte {
			// Relay addresses followed by consensus bulk: the 2017-era
			// microdesc consensus was a multi-hundred-kilobyte download,
			// a large share of Tor's first-start latency.
			head := fmt.Sprintf("%s:9001 %s:9001\n", ipTorMiddle, ipTorExit)
			return append([]byte(head), make([]byte, 448*1024)...)
		},
		Cert: []byte("tor-bridge-cert"),
	}
	front := &tor.MeekServer{
		Env:   w.Env,
		Relay: bridge,
		Cert:  []byte("cdn-front-cert"),
	}
	lnFront, err := w.FrontHost.Listen("tcp", ":443")
	if err != nil {
		panic(err)
	}
	w.Env.Spawn.Go(func() { front.Serve(lnFront) })
}

// --- Method factories ---------------------------------------------------

// Direct returns the no-circumvention baseline on host h.
func (w *World) Direct(h *netsim.Host) tunnel.Method {
	return &tunnel.Direct{Dialer: h, Resolver: w.resolverFor(h)}
}

// NativeVPN returns a connected PPTP client on host h.
func (w *World) NativeVPN(h *netsim.Host) tunnel.Method {
	return w.nativeVPN(h, vpn.PPTP, portVPN)
}

// NativeVPNL2TP returns a connected L2TP client on host h.
func (w *World) NativeVPNL2TP(h *netsim.Host) tunnel.Method {
	return w.nativeVPN(h, vpn.L2TP, portVPN+1)
}

func (w *World) nativeVPN(h *netsim.Host, variant vpn.Variant, port int) tunnel.Method {
	// Users keep the VPN connected before browsing; measurement code
	// calls Connect (via prepare) on a managed goroutine so the control
	// handshake is not part of any page's PLT.
	return &vpn.Client{
		Env:          w.Env,
		Dial:         h.Dial,
		Server:       fmt.Sprintf("%s:%d", ipVPN, port),
		Secret:       w.vpnSecret,
		Variant:      variant,
		EchoInterval: vpnEchoInterval,
		EchoSize:     vpnEchoSize,
	}
}

// OpenVPN returns a connected OpenVPN client on host h.
func (w *World) OpenVPN(h *netsim.Host) tunnel.Method {
	id, err := w.CA.Issue(fmt.Sprintf("client-%s", h.IP()), false)
	if err != nil {
		panic(err)
	}
	return &openvpn.Client{
		Env:          w.Env,
		Dial:         h.Dial,
		Server:       fmt.Sprintf("%s:%d", ipOpenVPN, portOpenVPN),
		ServerName:   "openvpn.example",
		TAKey:        w.taKey,
		Identity:     id,
		VerifyServer: w.CA.Verifier(),
		PingInterval: openvpnPingInterval,
		PingSize:     openvpnPingSize,
	}
}

// Tor returns a Tor client on host h. Bootstrap is lazy: the paper's
// first-time PLT includes circuit construction.
func (w *World) Tor(h *netsim.Host) *tor.Client {
	return &tor.Client{
		Env:          w.Env,
		Dial:         h.Dial,
		FrontAddr:    fmt.Sprintf("%s:443", ipMeekFront),
		FrontDomain:  meekFrontSNI,
		PollInterval: meekPollInterval,
	}
}

// Shadowsocks returns a Shadowsocks client on host h.
func (w *World) Shadowsocks(h *netsim.Host) *shadowsocks.Client {
	return &shadowsocks.Client{
		Env:        w.Env,
		Dial:       h.Dial,
		Server:     fmt.Sprintf("%s:%d", ipSS, portSS),
		Password:   w.ssPassword,
		Credential: "scholar:pass2016",
		KeepAlive:  w.Cfg.SSKeepAlive,
	}
}

// HostsFile returns the survey's "other methods" representative: a hosts
// file pointing a volunteer mirror's name (absent from public DNS) at an
// IP the GFW has not yet blocked. Anything named *google.com* would die
// to the keyword filter no matter where it resolves, so the tricks that
// still worked in the study's era used innocuous aliases.
func (w *World) HostsFile(h *netsim.Host) tunnel.Method {
	return &tunnel.HostsFile{
		Dialer: h,
		Entries: map[string]string{
			mirrorAltName: ipUnblockedGoogle,
		},
		Fallback: w.resolverFor(h),
	}
}
