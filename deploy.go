package scholarcloud

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"scholarcloud/internal/autoscale"
	"scholarcloud/internal/cache"
	"scholarcloud/internal/carrier"
	"scholarcloud/internal/censor"
	"scholarcloud/internal/core"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/pac"
	"scholarcloud/internal/pki"
	"scholarcloud/internal/shard"
	"scholarcloud/internal/tier"
)

// RemoteConfig configures a real-socket remote proxy (the endpoint
// outside the censored network).
type RemoteConfig struct {
	// Listen is the TCP address for domestic-proxy tunnels, e.g. ":8443".
	Listen string
	// AdminListen, when non-empty, serves /metrics (text key=value) and
	// /healthz on a separate operator-facing listener, e.g. "127.0.0.1:9100".
	AdminListen string
	// Secret is the blinding key material shared with the domestic proxy.
	Secret []byte
	// Epoch selects the blinding scheme; both proxies must agree.
	Epoch uint64
	// Name is the certificate common name presented on per-stream
	// channels (default "remote.scholarcloud.example").
	Name string
}

// RemoteProxy is a running remote proxy.
type RemoteProxy struct {
	remote  *core.Remote
	ln      net.Listener
	adminLn net.Listener
	// CACert is the DER self-signed root created at startup; ship it to
	// domestic proxies that want per-stream channel verification.
	CACert []byte
}

// Addr returns the bound listen address.
func (r *RemoteProxy) Addr() net.Addr { return r.ln.Addr() }

// AdminAddr returns the bound admin listener address, or nil when
// AdminListen was not configured.
func (r *RemoteProxy) AdminAddr() net.Addr {
	if r.adminLn == nil {
		return nil
	}
	return r.adminLn.Addr()
}

// Close shuts the proxy down. Nil fields are skipped so a partially
// started proxy (an error exit inside StartRemote) can reuse it as its
// cleanup path.
func (r *RemoteProxy) Close() {
	if r.remote != nil {
		r.remote.Close()
	}
	if r.ln != nil {
		r.ln.Close()
	}
	if r.adminLn != nil {
		r.adminLn.Close()
	}
}

// adminHandler serves the operator endpoints: /metrics renders the
// registry snapshot as sorted "name=value" lines; /healthz reports 200
// while healthy() says so and 503 otherwise. A non-nil scale source adds
// /scale-events, the autoscaler's decision log (one line per transition,
// priced in $/day); it renders a placeholder until a controller starts.
func adminHandler(reg *obs.Registry, healthy func() (bool, string), scale func() []autoscale.Decision) httpsim.Handler {
	m := httpsim.NewMux()
	m.HandleFunc("/metrics", func(_ *httpsim.Request, _ net.Addr) *httpsim.Response {
		var buf bytes.Buffer
		reg.Snapshot().WriteText(&buf)
		resp := httpsim.NewResponse(200, buf.Bytes())
		resp.Header["Content-Type"] = "text/plain; charset=utf-8"
		return resp
	})
	m.HandleFunc("/healthz", func(_ *httpsim.Request, _ net.Addr) *httpsim.Response {
		ok, detail := healthy()
		status := 200
		if !ok {
			status = 503
		}
		return httpsim.NewResponse(status, []byte(detail+"\n"))
	})
	if scale != nil {
		m.HandleFunc("/scale-events", func(_ *httpsim.Request, _ net.Addr) *httpsim.Response {
			resp := httpsim.NewResponse(200, renderScaleEvents(scale()))
			resp.Header["Content-Type"] = "text/plain; charset=utf-8"
			return resp
		})
	}
	return m
}

// renderScaleEvents formats the autoscaler's decision log for the admin
// endpoint: one line per transition with its reason and daily price.
func renderScaleEvents(ds []autoscale.Decision) []byte {
	if len(ds) == 0 {
		return []byte("no scale events\n")
	}
	var buf bytes.Buffer
	for _, d := range ds {
		fmt.Fprintf(&buf, "%s %d->%d %s vm=%.2f$/day delta=%+.2f$/day",
			d.At.UTC().Format(time.RFC3339), d.From, d.To, d.Reason, d.VMPerDayUSD, d.DeltaUSD)
		if d.Err != nil {
			fmt.Fprintf(&buf, " err=%v", d.Err)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// startAdmin binds and serves the admin endpoints, returning the
// listener (nil when addr is empty).
func startAdmin(env netx.Env, addr string, reg *obs.Registry, healthy func() (bool, string), scale func() []autoscale.Decision) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &httpsim.Server{Handler: adminHandler(reg, healthy, scale), Spawn: env.Spawn}
	go srv.Serve(ln)
	return ln, nil
}

// StartRemote launches the remote proxy over real sockets.
func StartRemote(cfg RemoteConfig) (*RemoteProxy, error) {
	if cfg.Name == "" {
		cfg.Name = "remote.scholarcloud.example"
	}
	ca, err := pki.NewCA("ScholarCloud Deployment CA", nil, nil)
	if err != nil {
		return nil, err
	}
	id, err := ca.Issue(cfg.Name, true)
	if err != nil {
		return nil, err
	}
	env := netx.RealEnv()
	remote := &core.Remote{
		Env: env,
		DialHost: func(host string, port int) (net.Conn, error) {
			return net.Dial("tcp", fmt.Sprintf("%s:%d", host, port))
		},
		Secret:   cfg.Secret,
		Epoch:    cfg.Epoch,
		Identity: id,
	}
	reg := obs.NewRegistry()
	remote.Instrument(reg)
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	// From here on every resource lives in p, so error exits close the
	// partial proxy as a unit rather than maintaining parallel cleanup
	// chains (an earlier version leaked remote's carrier state when the
	// admin bind failed).
	p := &RemoteProxy{remote: remote, ln: ln, CACert: ca.DER}
	adminLn, err := startAdmin(env, cfg.AdminListen, reg, func() (bool, string) { return true, "ok" }, nil)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.adminLn = adminLn
	go remote.Serve(ln)
	return p, nil
}

// DomesticConfig configures a real-socket domestic proxy (the endpoint
// users' browsers are pointed at).
type DomesticConfig struct {
	// ProxyListen is the browser-facing proxy address, e.g. ":8118".
	ProxyListen string
	// WebListen serves /pac and /whitelist, e.g. ":8080".
	WebListen string
	// AdminListen, when non-empty, serves /metrics and /healthz on a
	// separate operator-facing listener, e.g. "127.0.0.1:9101".
	AdminListen string
	// RemoteAddr is the remote proxy's "host:port".
	RemoteAddr string
	// RemoteAddrs lists multiple remote proxies. Takes precedence over
	// RemoteAddr. However many remotes are configured, the domestic proxy
	// runs them as a managed fleet (pre-dialed carrier pools, health
	// probing, load balancing, takedown rotation); a single remote is
	// simply a one-member fleet.
	RemoteAddrs []string
	// SessionsPerRemote sizes each fleet remote's pre-dialed carrier pool
	// (zero selects the fleet default).
	SessionsPerRemote int
	// Secret/Epoch must match the remote proxy.
	Secret []byte
	Epoch  uint64
	// Whitelist is the visible list of incidentally-blocked legal domains
	// the proxy forwards; everything else is refused.
	Whitelist []string
	// PublicProxyAddr is the address written into the generated PAC file
	// (what browsers can reach), e.g. "proxy.example.com:8118".
	PublicProxyAddr string
	// CacheMB, when > 0, runs the proxy with a shared content cache of
	// that many MiB: whitelisted static objects are stored once and
	// served to every user without re-crossing the border, concurrent
	// identical misses coalesce into one upstream fetch, and cache
	// counters surface on the admin /metrics endpoint.
	CacheMB int
	// CacheTTL overrides the cache's heuristic freshness lifetime (zero
	// selects the cache package default, 60 s).
	CacheTTL time.Duration
	// Transports, when non-empty, replaces RemoteAddr/RemoteAddrs with an
	// escalation ladder of carrier rungs. Each entry is "name=host:port":
	// the rung's canonical transport name (see TransportNames) and the
	// address of its entry point — the remote proxy itself for the blinded
	// rung, a rendezvous gateway or tunnel daemon for the others. Rungs are
	// listed fastest (most blockable) first; the proxy prefers the lowest
	// healthy rung, escalates on sustained transport failure, and probes
	// back down when the rung below recovers.
	Transports []string
	// CensorProfile names the censorship regime this deployment expects
	// to face (see CensorProfiles for the known names). It requires
	// Transports — surviving an active censor is the escalation ladder's
	// job — and retunes the ladder for survival: rotate after two
	// consecutive failures instead of three, and probe back down at half
	// the usual cadence so a recovery probe doesn't keep re-landing
	// users on a rung the censor just fingerprinted. With Resilience on
	// it also deepens the retry budget so a request caught mid-crackdown
	// outlives the rotation its own failures trigger. The numbers are
	// the censor package's survival tuning — the same configuration the
	// multi-border experiments measure, so the simulated survival rates
	// transfer to this deployment.
	CensorProfile string
	// ShardAddrs, when non-empty, makes this proxy one shard of a
	// horizontally sharded domestic tier: it lists every shard's public
	// proxy address — including this process's own PublicProxyAddr — in
	// the order agreed tier-wide. The generated PAC then embeds the whole
	// tier with the rendezvous user→shard assignment, and a local cache
	// miss on a key owned by a peer shard is filled from that peer (one
	// border crossing per object for the whole tier) instead of across
	// the border. Every shard of a tier must be started with the same
	// list. Requires CacheMB (the peering tier is a cache tier) and is
	// mutually exclusive with Transports. For the one-process tier the
	// CLI's -shards flag runs, see StartDomesticTier, which derives this
	// list itself.
	ShardAddrs []string
	// Resilience, when true, runs the client path under the resilience
	// policy: per-dial and per-request deadlines, exponential reconnect
	// backoff with deterministic jitter, and hedged retry/failover across
	// fleet remotes. Off preserves the paper deployment's fail-fast
	// behaviour.
	Resilience bool
	// DialTimeout/RequestTimeout override the resilience deadlines (zero
	// selects the core defaults: 3 s per dial and 45 s per request, or the
	// laddered-border tuning of 12 s and 90 s with Transports). They take
	// effect only with Resilience on, except that a Transports ladder
	// always bounds its dials.
	DialTimeout    time.Duration
	RequestTimeout time.Duration
}

// remotes reconciles RemoteAddr and RemoteAddrs.
func (cfg DomesticConfig) remotes() []string {
	if len(cfg.RemoteAddrs) > 0 {
		return cfg.RemoteAddrs
	}
	if cfg.RemoteAddr != "" {
		return []string{cfg.RemoteAddr}
	}
	return nil
}

// transportRungs parses Transports entries ("name=host:port") into
// ladder rungs over real TCP sockets, in listed order.
func transportRungs(specs []string, wrap carrier.WrapFunc) ([]carrier.Transport, error) {
	known := make(map[string]bool)
	for _, n := range carrier.Known() {
		known[n] = true
	}
	seen := make(map[string]bool)
	var rungs []carrier.Transport
	for _, spec := range specs {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("scholarcloud: transport %q: want \"name=host:port\"", spec)
		}
		if !known[name] {
			return nil, fmt.Errorf("scholarcloud: unknown transport %q (known: %s)",
				name, strings.Join(carrier.Known(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("scholarcloud: duplicate transport %q", name)
		}
		seen[name] = true
		rungs = append(rungs, carrier.NewStatic(name,
			func() (net.Conn, error) { return net.Dial("tcp", addr) }, wrap))
	}
	return rungs, nil
}

// DomesticProxy is a running domestic proxy.
type DomesticProxy struct {
	domestic *core.Domestic
	pool     *fleet.Pool
	ladder   *carrier.Ladder
	proxy    *httpsim.Proxy
	proxyLn  net.Listener
	webLn    net.Listener
	adminLn  net.Listener
	policy   *pac.Config
	// reg collects the proxy's metrics; the admin listener renders it and
	// the tier autoscaler samples it.
	reg *obs.Registry
	// ring is the shard tier's rendezvous view when the proxy runs
	// sharded (ShardAddrs or StartDomesticTier); nil for the ordinary
	// single proxy. Tier shards share one ring.
	ring *shard.Ring

	scaleMu sync.Mutex
	scaleFn func() []autoscale.Decision
}

// setScaleSource installs the decision log /scale-events renders; the
// tier autoscaler calls it on every shard when it starts.
func (d *DomesticProxy) setScaleSource(fn func() []autoscale.Decision) {
	d.scaleMu.Lock()
	d.scaleFn = fn
	d.scaleMu.Unlock()
}

// scaleDecisions reads the installed decision log (nil before any
// autoscaler starts).
func (d *DomesticProxy) scaleDecisions() []autoscale.Decision {
	d.scaleMu.Lock()
	fn := d.scaleFn
	d.scaleMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// ProxyAddr returns the browser-facing address.
func (d *DomesticProxy) ProxyAddr() net.Addr { return d.proxyLn.Addr() }

// WebAddr returns the PAC/whitelist endpoint address.
func (d *DomesticProxy) WebAddr() net.Addr { return d.webLn.Addr() }

// AdminAddr returns the bound admin listener address, or nil when
// AdminListen was not configured.
func (d *DomesticProxy) AdminAddr() net.Addr {
	if d.adminLn == nil {
		return nil
	}
	return d.adminLn.Addr()
}

// PAC returns the generated proxy auto-config file.
func (d *DomesticProxy) PAC() string { return d.policy.JavaScript() }

// ShardAddrs returns the proxy tier the PAC currently publishes: the
// live shards of a sharded deployment, or this proxy alone.
func (d *DomesticProxy) ShardAddrs() []string { return d.policy.Proxies() }

// MarkShardDown routes this shard's view of the tier around a seized
// peer: the dead shard's key range rehashes to survivors and the PAC this
// process serves stops listing it. Every surviving shard of a
// multi-process tier must be told (each holds its own ring); the
// one-process tier's DomesticTier.MarkDown does that fan-out. No-op for
// an unsharded proxy.
func (d *DomesticProxy) MarkShardDown(addr string) {
	if d.ring == nil {
		return
	}
	d.ring.MarkDown(addr)
	d.policy.SetProxies(d.ring.Up())
}

// MarkShardUp readmits a recovered peer shard (see MarkShardDown).
func (d *DomesticProxy) MarkShardUp(addr string) {
	if d.ring == nil {
		return
	}
	d.ring.MarkUp(addr)
	d.policy.SetProxies(d.ring.Up())
}

// SetWhitelist replaces the visible whitelist at runtime (the on-demand
// alteration the registration regime requires).
func (d *DomesticProxy) SetWhitelist(domains []string) { d.policy.SetDomains(domains) }

// Rotate switches the blinding epoch (coordinate with the remote).
func (d *DomesticProxy) Rotate(epoch uint64) { d.domestic.Rotate(epoch) }

// FleetStats snapshots the remote pool (every deployment runs one, even
// with a single remote).
func (d *DomesticProxy) FleetStats() fleet.Stats {
	return d.pool.Stats()
}

// ActiveTransport reports the escalation ladder's active rung, or ""
// when the proxy was not configured with Transports.
func (d *DomesticProxy) ActiveTransport() string {
	if d.ladder == nil {
		return ""
	}
	return d.ladder.ActiveName()
}

// Close shuts the proxy down. Nil fields are skipped so a partially
// started proxy (an error exit inside StartDomestic) can reuse it as its
// cleanup path.
func (d *DomesticProxy) Close() {
	if d.ladder != nil {
		d.ladder.Close()
	}
	if d.pool != nil {
		d.pool.Close()
	}
	if d.proxy != nil {
		d.proxy.Close()
	}
	if d.proxyLn != nil {
		d.proxyLn.Close()
	}
	if d.webLn != nil {
		d.webLn.Close()
	}
	if d.adminLn != nil {
		d.adminLn.Close()
	}
}

// StartDomestic launches the domestic proxy over real sockets. All
// remote configurations — one address or many — are routed through a
// managed fleet; the paper's single-remote deployment is a degenerate
// one-member pool.
func StartDomestic(cfg DomesticConfig) (*DomesticProxy, error) {
	addrs := cfg.remotes()
	if len(addrs) == 0 && len(cfg.Transports) == 0 {
		return nil, errors.New("scholarcloud: DomesticConfig needs RemoteAddr, RemoteAddrs, or Transports")
	}
	if len(addrs) > 0 && len(cfg.Transports) > 0 {
		return nil, errors.New("scholarcloud: RemoteAddrs and Transports are mutually exclusive — each transport entry names its own entry point")
	}
	if cfg.CensorProfile != "" {
		if _, ok := censor.ProfileByName(cfg.CensorProfile); !ok {
			return nil, fmt.Errorf("scholarcloud: unknown censor profile %q (known: %s)",
				cfg.CensorProfile, strings.Join(censor.ProfileNames(), ", "))
		}
		if len(cfg.Transports) == 0 {
			return nil, errors.New("scholarcloud: CensorProfile requires Transports — the survival tuning applies to the escalation ladder")
		}
	}
	env := netx.RealEnv()
	public := cfg.PublicProxyAddr
	if public == "" {
		public = cfg.ProxyListen
	}
	var ring *shard.Ring
	if len(cfg.ShardAddrs) > 0 {
		if err := validateShardAddrs(cfg, public); err != nil {
			return nil, err
		}
		ring = shard.NewRing(cfg.ShardAddrs)
	}
	policy := pac.New(public, cfg.Whitelist)
	if ring != nil {
		policy.SetProxies(cfg.ShardAddrs)
	}
	domestic := &core.Domestic{
		Env:       env,
		Secret:    cfg.Secret,
		Epoch:     cfg.Epoch,
		Whitelist: policy,
		// Per-stream channel verification requires distributing the
		// remote's CA; the blinded carrier plus shared secret already
		// authenticate the peer, so deployment defaults to accepting the
		// remote's certificate.
		RemoteName: "remote.scholarcloud.example",
	}
	if cfg.CacheMB > 0 {
		cc, err := cache.New(env, cache.Options{
			Capacity:   int64(cfg.CacheMB) << 20,
			DefaultTTL: cfg.CacheTTL,
		})
		if err != nil {
			return nil, err
		}
		domestic.Cache = cc
		if ring != nil {
			// Sibling fetches dial the owning peer's public proxy address on
			// the domestic network; Self must be this shard's tier entry so
			// every peer computes the same ownership.
			cc.SetPeers(&cache.Peers{
				Self:  public,
				Owner: ring.Owner,
				Fetch: core.SiblingFetcher(net.Dial),
			})
		}
	}
	if cfg.Resilience {
		domestic.Resil = &core.Resilience{
			DialTimeout:    cfg.DialTimeout,
			RequestTimeout: cfg.RequestTimeout,
		}
		if cfg.CensorProfile != "" {
			domestic.Resil.Retries = censor.SurvivalRetries
		}
	}
	reg := obs.NewRegistry()
	domestic.Instrument(reg)

	border := core.Border{Pool: fleet.Config{
		SessionsPerRemote: cfg.SessionsPerRemote,
		DialTimeout:       cfg.DialTimeout,
	}}
	if len(cfg.Transports) > 0 {
		rungs, err := transportRungs(cfg.Transports, domestic.WrapCarrier)
		if err != nil {
			return nil, err
		}
		border.Rungs = rungs
		if cfg.CensorProfile != "" {
			border.Ladder.TripAfter = censor.SurvivalTripAfter
			border.Ladder.ProbeInterval = censor.SurvivalProbeInterval
		}
	} else {
		for _, addr := range addrs {
			addr := addr
			border.Remotes = append(border.Remotes, fleet.Endpoint{
				Name: addr,
				Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
			})
		}
	}
	pool, ladder, err := domestic.AssembleBorder(border, reg)
	if err != nil {
		return nil, err
	}

	// From here on every resource lives in p, so error exits close the
	// partial proxy as a unit rather than maintaining parallel cleanup
	// chains that drift as resources are added.
	p := &DomesticProxy{domestic: domestic, pool: pool, ladder: ladder, policy: policy, reg: reg, ring: ring}
	p.proxyLn, err = net.Listen("tcp", cfg.ProxyListen)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.webLn, err = net.Listen("tcp", cfg.WebListen)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.adminLn, err = startAdmin(env, cfg.AdminListen, reg, func() (bool, string) {
		if pool.Stats().Healthy() == 0 {
			return false, "no healthy remote endpoints"
		}
		return true, "ok"
	}, p.scaleDecisions)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.proxy = domestic.Proxy()
	go p.proxy.Serve(p.proxyLn)
	webSrv := &httpsim.Server{Handler: domestic.PACHandler(), Spawn: env.Spawn}
	go webSrv.Serve(p.webLn)
	return p, nil
}

// validateShardAddrs checks the multi-process shard-tier invariants
// before StartDomestic allocates anything.
func validateShardAddrs(cfg DomesticConfig, public string) error {
	if len(cfg.ShardAddrs) < 2 {
		return fmt.Errorf("scholarcloud: ShardAddrs lists %d shard — a one-shard tier is the ordinary single proxy, so leave it empty instead", len(cfg.ShardAddrs))
	}
	if cfg.CacheMB <= 0 {
		return errors.New("scholarcloud: ShardAddrs requires CacheMB — the sharded tier exists to scale the shared content cache, and sibling fetches need one on every shard")
	}
	if len(cfg.Transports) > 0 {
		return errors.New("scholarcloud: ShardAddrs and Transports are mutually exclusive — the sharded tier runs on the single blinded carrier")
	}
	for _, a := range cfg.ShardAddrs {
		if a == public {
			return nil
		}
	}
	return fmt.Errorf("scholarcloud: this shard's public address %q is not in ShardAddrs — peers could never agree on key ownership; list every shard, including this one", public)
}

// addrPlus derives shard i's address from base by adding i to the port.
// Empty addresses and ephemeral ports (":0", which the OS numbers at
// bind time) pass through unchanged.
func addrPlus(base string, i int) (string, error) {
	if base == "" || i == 0 {
		return base, nil
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("scholarcloud: cannot derive shard %d's address from %q: %v", i, base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("scholarcloud: cannot derive shard %d's address from %q: non-numeric port", i, base)
	}
	if port == 0 {
		return base, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(port+i)), nil
}

// DomesticTier is a sharded domestic tier running in one process: what
// the CLI's -shards flag deploys. Every shard is a full DomesticProxy
// (own listeners, own cache, own admin surface); the tier adds the
// shared rendezvous ring, the peered caches, and the coordinated
// takedown control plane.
type DomesticTier struct {
	shards []*DomesticProxy
	// orch is the shared tier control plane (ring, Director, cache
	// peering, warm-up admit, draining retire) — the same orchestration
	// the simulator's worlds run, here on the wall clock over net.Dial.
	orch *tier.Tier

	asMu       sync.Mutex
	autoscaler *autoscale.Controller
	// lastReqs/lastSample turn the tier's monotonic request counter into
	// the controller's sessions/sec demand signal, one delta per tick.
	lastReqs   int64
	lastSample time.Time
	haveSample bool
}

// Shards returns the tier's proxies in shard order.
func (t *DomesticTier) Shards() []*DomesticProxy { return t.shards }

// Addrs returns every shard's public proxy address in tier order, up or
// down.
func (t *DomesticTier) Addrs() []string {
	if t.orch == nil {
		return nil
	}
	return t.orch.Ring().Names()
}

// PAC returns the tier's proxy auto-config file (every shard serves an
// identical one).
func (t *DomesticTier) PAC() string { return t.shards[0].PAC() }

// SetWhitelist replaces the visible whitelist on every shard.
func (t *DomesticTier) SetWhitelist(domains []string) {
	for _, d := range t.shards {
		d.SetWhitelist(domains)
	}
}

// MarkDown coordinates a takedown: the seized shard's key range rehashes
// to survivors and every shard's PAC stops listing it, so users'
// next PAC download routes only to live shards.
func (t *DomesticTier) MarkDown(addr string) { t.orch.MarkDown(addr) }

// MarkUp readmits a recovered shard tier-wide.
func (t *DomesticTier) MarkUp(addr string) { t.orch.MarkUp(addr) }

// Autoscaler returns the running controller, or nil before
// StartAutoscale.
func (t *DomesticTier) Autoscaler() *autoscale.Controller {
	t.asMu.Lock()
	defer t.asMu.Unlock()
	return t.autoscaler
}

// Close shuts every shard down. Safe on a partially started tier.
func (t *DomesticTier) Close() {
	if ctl := t.Autoscaler(); ctl != nil {
		ctl.Stop()
	}
	for _, d := range t.shards {
		d.Close()
	}
}

// StartAutoscale turns the static tier elastic: shards beyond
// o.InitialShards are parked as standbys (out of the ring, so the PAC and
// key ownership cover only the active prefix) and a metrics-driven
// control loop on the wall clock grows and shrinks the active set through
// the Director. Demand is sampled from the shards' own request counters
// (proxied requests/sec tier-wide — calibrate Policy.ShardSessionsPerSec
// in the same unit); a scale-up warms the joiner's cache from peers over
// the sibling path before it enters the ring, and a scale-down drains the
// leaver's keys to their new owners. Decisions are priced through opscost
// and served on every shard's admin listener at /scale-events.
func (t *DomesticTier) StartAutoscale(o AutoscaleOptions) error {
	if err := o.Validate(); err != nil {
		return err
	}
	t.asMu.Lock()
	defer t.asMu.Unlock()
	if t.autoscaler != nil {
		return errors.New("scholarcloud: the tier's autoscaler is already running")
	}
	ctl, err := t.orch.Autoscale(o.InitialShards, o.Policy, t.demand)
	if err != nil {
		return fmt.Errorf("scholarcloud: StartAutoscale: %w", err)
	}
	for _, d := range t.shards {
		ctl.Instrument(d.reg)
		d.setScaleSource(ctl.Decisions)
	}
	t.autoscaler = ctl
	go ctl.Run(netx.RealEnv(), o.Interval)
	return nil
}

// demand is the tier-wide proxied-request rate since the previous
// controller tick (the page-load p99 is not measured proxy-side).
func (t *DomesticTier) demand() (float64, time.Duration) {
	var reqs int64
	for _, d := range t.shards {
		reqs += d.reg.Snapshot().Counter("core.domestic.requests")
	}
	now := time.Now()
	t.asMu.Lock()
	defer t.asMu.Unlock()
	rate := 0.0
	if t.haveSample {
		if dt := now.Sub(t.lastSample).Seconds(); dt > 0 {
			rate = float64(reqs-t.lastReqs) / dt
		}
	}
	t.lastReqs, t.lastSample, t.haveSample = reqs, now, true
	return rate, 0
}

// StartDomesticTier launches a sharded domestic tier of n proxies in one
// process. Shard i binds cfg's ProxyListen, WebListen, and AdminListen
// (and publishes PublicProxyAddr) with the port incremented by i;
// ephemeral ":0" listens stay ephemeral, in which case the bound
// addresses stand in for the public ones. After every shard is up the
// tier wires the shared ring: the PAC each shard serves embeds the whole
// tier with the rendezvous user→shard assignment, and the shards' caches
// peer so each shared object crosses the border once tier-wide.
//
// Multi-process tiers (one shard per machine — the production shape) use
// StartDomestic with DomesticConfig.ShardAddrs instead.
func StartDomesticTier(cfg DomesticConfig, n int) (*DomesticTier, error) {
	if n < 2 {
		return nil, fmt.Errorf("scholarcloud: StartDomesticTier of %d shard — use StartDomestic for the ordinary single proxy", n)
	}
	if cfg.CacheMB <= 0 {
		return nil, errors.New("scholarcloud: a sharded tier requires CacheMB — it exists to scale the shared content cache, and sibling fetches need one on every shard")
	}
	if len(cfg.Transports) > 0 {
		return nil, errors.New("scholarcloud: a sharded tier and Transports are mutually exclusive — the tier runs on the single blinded carrier")
	}
	if len(cfg.ShardAddrs) > 0 {
		return nil, errors.New("scholarcloud: leave ShardAddrs empty with StartDomesticTier — the tier derives the shard list from its own listeners")
	}

	t := &DomesticTier{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		sc := cfg
		var err error
		for _, f := range []*string{&sc.ProxyListen, &sc.WebListen, &sc.AdminListen, &sc.PublicProxyAddr} {
			if *f, err = addrPlus(*f, i); err != nil {
				t.Close()
				return nil, err
			}
		}
		d, err := StartDomestic(sc)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("scholarcloud: shard %d: %w", i, err)
		}
		t.shards = append(t.shards, d)
		if sc.PublicProxyAddr != "" {
			addrs[i] = sc.PublicProxyAddr
		} else {
			addrs[i] = d.ProxyAddr().String()
		}
	}

	// The shard list exists only now (ephemeral listens get their port at
	// bind time), so ring, PAC tier, and cache peering wire up after the
	// fact — the same post-start order a rolling tier restart would see.
	members := make([]tier.Member, n)
	for i, d := range t.shards {
		members[i] = tier.Member{Addr: addrs[i], Cache: d.domestic.Cache, Dial: net.Dial}
	}
	t.orch = tier.New(members, time.Now, func(up []string) {
		for _, d := range t.shards {
			d.policy.SetProxies(up)
		}
	})
	t.orch.Peer()
	for _, d := range t.shards {
		d.ring = t.orch.Ring()
		// Tier membership on every shard's /metrics: live shard count,
		// configured members, last-rebalance timestamp.
		t.orch.Instrument(d.reg)
	}
	return t, nil
}
