// Package scholarcloud is the public API of the ScholarCloud
// reproduction: the split-proxy system of "Accessing Google Scholar under
// Extreme Internet Censorship: A Legal Avenue" (Middleware 2017), plus the
// simulated censored internet its measurement study runs on.
//
// Two entry points:
//
//   - Simulation wraps the full world of the paper's methodology — a
//     client inside CERNET, the GFW on the border, Google Scholar and all
//     five access methods' servers — and exposes the per-figure
//     measurement runners. Every Measure* method returns a typed result
//     struct carrying the measurement's observability snapshot (the delta
//     of every layer's counters across the run). See examples/ for
//     end-to-end uses.
//
//   - Deployment runs the actual ScholarCloud proxies over real sockets:
//     a remote proxy outside the censored network and a domestic proxy
//     users' browsers point their PAC configuration at. cmd/scholarcloud
//     is the thin CLI over it.
package scholarcloud

import (
	"fmt"
	"strings"
	"time"

	"scholarcloud/internal/autoscale"
	"scholarcloud/internal/carrier"
	"scholarcloud/internal/censor"
	"scholarcloud/internal/experiments"
	"scholarcloud/internal/faults"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/survey"
)

// Simulation is a censored-internet world with all study infrastructure
// running.
type Simulation struct {
	// World exposes the underlying topology, hosts, GFW, and method
	// factories for fine-grained use.
	World *experiments.World

	// flowClients carries Options.FlowClients for flow-level measurements.
	flowClients int
	// censorStage carries Options.Censor.Stage for MeasureTransports.
	censorStage string
}

// FleetOptions sizes the managed pool of remote proxies (health-probed,
// load-balanced, takedown-rotated) behind ScholarCloud's domestic proxy.
// Every world runs one: without a Fleet block it holds the paper's single
// remote.
type FleetOptions struct {
	// Remotes is the pool size. Endpoint 0 is the paper's primary remote;
	// the rest are extra VMs. Zero and one are the same world.
	Remotes int
	// SessionsPerRemote sizes each remote's pre-dialed carrier pool (zero
	// selects the fleet package default).
	SessionsPerRemote int
}

// Validate rejects nonsensical fleet configurations.
func (f *FleetOptions) Validate() error {
	if f == nil {
		return nil
	}
	if f.Remotes < 0 {
		return fmt.Errorf("scholarcloud: FleetOptions.Remotes is negative (%d)", f.Remotes)
	}
	if f.SessionsPerRemote < 0 {
		return fmt.Errorf("scholarcloud: FleetOptions.SessionsPerRemote is negative (%d)", f.SessionsPerRemote)
	}
	if f.SessionsPerRemote > 0 && f.Remotes == 0 {
		return fmt.Errorf("scholarcloud: FleetOptions.SessionsPerRemote set (%d) but Remotes is zero — name the pool size the sessions belong to", f.SessionsPerRemote)
	}
	return nil
}

// CacheOptions gives the domestic proxy a shared content cache
// (internal/cache): whitelisted static objects are stored once and served
// to every user without re-crossing the border link, and concurrent
// identical misses coalesce into one upstream fetch. Enabling the cache
// also switches ScholarCloud clients to HTTPS-gateway mode (absolute-URI
// requests the proxy can see) instead of opaque CONNECT tunnels.
type CacheOptions struct {
	// CapacityMB is the cache byte budget in MiB. Required (> 0): an
	// explicit CacheOptions block with no capacity is a configuration
	// error, not a default.
	CapacityMB int
	// TTL overrides the heuristic freshness lifetime for responses without
	// explicit cache metadata (zero selects the cache package default,
	// 60 s).
	TTL time.Duration
}

// Validate rejects nonsensical cache configurations.
func (c *CacheOptions) Validate() error {
	if c == nil {
		return nil
	}
	if c.CapacityMB <= 0 {
		return fmt.Errorf("scholarcloud: CacheOptions.CapacityMB must be positive (got %d) — omit the Cache block to run without a cache", c.CapacityMB)
	}
	if c.TTL < 0 {
		return fmt.Errorf("scholarcloud: CacheOptions.TTL is negative (%v)", c.TTL)
	}
	return nil
}

// FaultOptions arms a scripted infrastructure-fault scenario against the
// world — timed loss bursts, latency spikes, bandwidth collapse, link
// flaps, remote-proxy crashes — and optionally turns on the client
// path's resilience layer. The script executes on the virtual clock once
// a measurement starts (see Simulation.MeasureFaults). Deliberate
// censor interference (GFW reset storms and throttling campaigns) is
// not a fault: arm it through Options.Censor.Episode instead.
type FaultOptions struct {
	// Scenario names one of the scripted scenarios (faults.Scenarios()),
	// e.g. "loss-burst" or "burst-loss+crash". Required.
	Scenario string
	// Resilience enables the domestic proxy's client-path resilience
	// layer: per-dial and per-request deadlines, exponential reconnect
	// backoff with deterministic jitter, and hedged retry/failover on a
	// second fleet remote. False measures the historical fail-fast
	// behaviour under the same faults.
	Resilience bool
}

// gfwEpisodes are the scripted scenarios that model deliberate censor
// interference rather than infrastructure faults. They are armed through
// CensorOptions.Episode; FaultOptions rejects them so every censorship
// knob has exactly one home.
var gfwEpisodes = map[string]bool{"reset-storm": true, "throttle": true}

// Validate rejects nonsensical fault configurations.
func (f *FaultOptions) Validate() error {
	if f == nil {
		return nil
	}
	if f.Scenario == "" {
		return fmt.Errorf("scholarcloud: FaultOptions.Scenario is empty — omit the Faults block to run the healthy world (known scenarios: %s)", strings.Join(faults.Scenarios(), ", "))
	}
	if gfwEpisodes[f.Scenario] {
		return fmt.Errorf("scholarcloud: scenario %q is a deliberate GFW interference episode, not an infrastructure fault — arm it through Options.Censor.Episode instead", f.Scenario)
	}
	if _, ok := faults.Script(f.Scenario); !ok {
		return fmt.Errorf("scholarcloud: unknown fault scenario %q (known scenarios: %s)", f.Scenario, strings.Join(faults.Scenarios(), ", "))
	}
	return nil
}

// FaultScenarios lists the scripted fault scenarios FaultOptions.Scenario
// accepts, in figure order.
func FaultScenarios() []string { return faults.Scenarios() }

// TransportOptions runs ScholarCloud's border hop over the
// carrier-transport escalation ladder (internal/carrier) instead of a
// single blinded carrier: the blinded TCP carrier, a serverless
// rendezvous pool of ephemeral per-request endpoints, and a covert DNS
// tunnel, ordered fastest (most blockable) first. The ladder prefers
// the lowest rung, escalates on sustained transport failure, and probes
// its way back down when the censor relents.
type TransportOptions struct {
	// Rungs names the carrier transports in ladder order. Empty selects
	// the full ladder (TransportNames()).
	Rungs []string
	// Resilience enables the client path's resilience layer; hedged
	// retries aim at the next rung up the ladder.
	Resilience bool
}

// Validate rejects nonsensical transport configurations.
func (t *TransportOptions) Validate() error {
	if t == nil {
		return nil
	}
	known := make(map[string]bool)
	for _, name := range carrier.Known() {
		known[name] = true
	}
	seen := make(map[string]bool)
	for _, r := range t.Rungs {
		if !known[r] {
			return fmt.Errorf("scholarcloud: unknown carrier transport %q (known transports: %s)",
				r, strings.Join(carrier.Known(), ", "))
		}
		if seen[r] {
			return fmt.Errorf("scholarcloud: carrier transport %q listed twice in TransportOptions.Rungs", r)
		}
		seen[r] = true
	}
	return nil
}

// TransportNames lists the carrier transports of the escalation ladder,
// fastest (most blockable) first.
func TransportNames() []string { return carrier.Known() }

// TransportStages lists the censor escalation stages
// Simulation.MeasureTransports accepts, mildest first.
func TransportStages() []string { return experiments.TransportStageNames() }

// CensorOptions is the single home for every censorship knob the facade
// exposes — what the censor does, rather than what the deployment runs.
//
// Exactly one of the three modes is set:
//
//   - Profile builds a multi-border world (CensorProfiles()): each
//     border crosses its own firewall with independent policy state, on
//     a scripted schedule or under an adaptive controller that watches
//     that border's flow classifications and escalates region by region.
//     Measured with Simulation.MeasureCensorship.
//
//   - Stage pins the single-border transport world to one fixed censor
//     escalation stage (TransportStages()); requires a Transports block.
//     It is the default stage of Simulation.MeasureTransports, which
//     previously could only be chosen call by call.
//
//   - Episode arms a deliberate GFW interference episode — "reset-storm"
//     or "throttle" — against the single border, measured with
//     Simulation.MeasureFaults. These two scripts were historically
//     spelled as fault scenarios in Options.Faults; they are censor
//     behaviour, so they live here now and FaultOptions rejects them.
type CensorOptions struct {
	// Profile names a multi-border censorship regime (CensorProfiles()).
	Profile string
	// Stage names a fixed censor escalation stage for the transport
	// ladder world (TransportStages()).
	Stage string
	// Episode names a GFW interference episode: "reset-storm" or
	// "throttle".
	Episode string
	// Resilience enables the client path's resilience layer, exactly as
	// FaultOptions.Resilience and TransportOptions.Resilience do.
	Resilience bool
}

// Validate rejects nonsensical censor configurations.
func (c *CensorOptions) Validate() error {
	if c == nil {
		return nil
	}
	set := 0
	for _, v := range []string{c.Profile, c.Stage, c.Episode} {
		if v != "" {
			set++
		}
	}
	if set == 0 {
		return fmt.Errorf("scholarcloud: CensorOptions is empty — set Profile, Stage or Episode, or omit the Censor block for the standing censor")
	}
	if set > 1 {
		return fmt.Errorf("scholarcloud: CensorOptions.Profile, Stage and Episode are mutually exclusive — a multi-border profile schedules its own stages and episodes")
	}
	if c.Profile != "" {
		if _, ok := censor.ProfileByName(c.Profile); !ok {
			return fmt.Errorf("scholarcloud: unknown censor profile %q (known profiles: %s)",
				c.Profile, strings.Join(censor.ProfileNames(), ", "))
		}
	}
	if c.Stage != "" {
		if _, ok := experiments.TransportStageByName(c.Stage); !ok {
			return fmt.Errorf("scholarcloud: unknown censor stage %q (known stages: %s)",
				c.Stage, strings.Join(experiments.TransportStageNames(), ", "))
		}
	}
	if c.Episode != "" && !gfwEpisodes[c.Episode] {
		return fmt.Errorf("scholarcloud: unknown GFW episode %q (known episodes: reset-storm, throttle)", c.Episode)
	}
	return nil
}

// CensorProfiles lists the multi-border censorship regimes
// CensorOptions.Profile accepts, in declaration order.
func CensorProfiles() []string { return censor.ProfileNames() }

// ShardOptions splits the domestic tier horizontally: Count proxy shards
// stand inside the censored network, the PAC file hashes each user onto
// one of them (rendezvous hashing over myIpAddress(), rendered into the
// PAC JavaScript so real browsers route exactly like the simulator), and
// the shards peer their content caches — a shard that misses on a static
// object asks the key's owning sibling before crossing the border, so
// the tier fetches each shared object across the border once no matter
// how many shards serve it. Requires a Cache block: the sharded tier
// exists to scale the shared cache, and without one the shards would
// just multiply border traffic.
type ShardOptions struct {
	// Count is the number of domestic proxy shards. Must be >= 2 — a
	// one-shard tier is the ordinary single proxy; omit the block for
	// that.
	Count int
	// SiblingFetch enables ICP/CARP-style cache peering: on a local miss
	// for a key another shard owns, fetch from that sibling instead of
	// crossing the border. Off, each shard fills its cache independently.
	SiblingFetch bool
	// RehashOnDeath re-assigns a dead shard's key range to the survivors
	// (consistent hashing moves only the dead shard's keys). Off, a dead
	// shard's keys keep their owner and sibling fetches to it fall back
	// to border fetches.
	RehashOnDeath bool
}

// Validate rejects nonsensical shard configurations.
func (s *ShardOptions) Validate() error {
	if s == nil {
		return nil
	}
	if s.Count < 2 {
		return fmt.Errorf("scholarcloud: ShardOptions.Count must be at least 2 (got %d) — a one-shard tier is the ordinary single proxy, so omit the Shards block instead", s.Count)
	}
	return nil
}

// AutoscalePolicy tunes the autoscaler's target-tracking thresholds,
// hysteresis, and cooldown windows. Zero fields take the autoscale
// package defaults.
type AutoscalePolicy = autoscale.Policy

// AutoscaleOptions turns the sharded domestic tier over to a
// metrics-driven autoscaler (internal/autoscale): all Shards.Count
// shards are provisioned, InitialShards start active, and a control
// loop sampling the tier's metrics — offered load, page-load p99, cache
// hit rate — admits warm standbys or retires actives through the shard
// tier mid-run. A joining shard pre-seeds the cache keys it is
// about to own from its peers over the sibling-fetch path before
// entering the ring, so scale-ups do not stampede the border; a
// retiring shard drains its keys to the survivors and keeps its
// listener open until in-flight sessions finish. Requires a Shards
// block with SiblingFetch and RehashOnDeath.
type AutoscaleOptions struct {
	// InitialShards is how many of the Shards.Count provisioned shards
	// start active; the rest park as warm standbys the controller can
	// admit. Must be >= 1 and <= Shards.Count.
	InitialShards int
	// Interval is the control loop's sampling period (zero selects the
	// 15 s default).
	Interval time.Duration
	// Policy tunes thresholds, hysteresis, and cooldowns. Zero fields
	// take the package defaults; MinShards defaults to InitialShards and
	// MaxShards to Shards.Count.
	Policy AutoscalePolicy
}

// Validate rejects nonsensical autoscale configurations.
func (a *AutoscaleOptions) Validate() error {
	if a == nil {
		return nil
	}
	if a.InitialShards < 1 {
		return fmt.Errorf("scholarcloud: AutoscaleOptions.InitialShards must be at least 1 (got %d)", a.InitialShards)
	}
	if a.Interval < 0 {
		return fmt.Errorf("scholarcloud: AutoscaleOptions.Interval is negative (%v)", a.Interval)
	}
	if err := a.Policy.Validate(); err != nil {
		return fmt.Errorf("scholarcloud: AutoscaleOptions.Policy: %w", err)
	}
	return nil
}

// Options configures a Simulation.
type Options struct {
	// Seed drives every stochastic decision; equal seeds reproduce equal
	// measurements. Zero selects the default (2017).
	Seed uint64
	// DisableGFW builds an uncensored world.
	DisableGFW bool
	// NoBlinding disables ScholarCloud's message blinding (ablation).
	NoBlinding bool
	// SSKeepAlive overrides Shadowsocks' 10s keep-alive (ablation).
	SSKeepAlive time.Duration
	// Fleet, when non-nil, grows the domestic proxy's remote-proxy pool
	// beyond the paper's single remote (nil is the one-member pool).
	Fleet *FleetOptions
	// Cache, when non-nil, runs the domestic proxy with a shared content
	// cache of Cache.CapacityMB MiB.
	Cache *CacheOptions
	// Faults, when non-nil, arms the named fault scenario (and,
	// optionally, the client resilience layer). Nil keeps the healthy
	// world and every figure byte-identical to the fault-free build.
	Faults *FaultOptions
	// Transports, when non-nil, runs the border hop over the carrier
	// escalation ladder. Mutually exclusive with Fleet (the ladder
	// manages its own endpoint pool). Nil keeps every figure
	// byte-identical to the single-carrier build.
	Transports *TransportOptions
	// Censor, when non-nil, puts the censor itself under test: a
	// multi-border Profile (measured with MeasureCensorship), a fixed
	// escalation Stage for the transport world, or a GFW interference
	// Episode (measured with MeasureFaults). Nil keeps the standing
	// censor and every figure byte-identical to it.
	Censor *CensorOptions
	// Shards, when non-nil, splits the domestic tier into Shards.Count
	// PAC-assigned proxy shards with peered content caches. Requires
	// Cache; mutually exclusive with Fleet and Transports. Nil keeps the
	// single domestic proxy and every figure byte-identical to it.
	Shards *ShardOptions
	// Autoscale, when non-nil, starts the sharded domestic tier with
	// Autoscale.InitialShards active and lets a metrics-driven control
	// loop grow it toward Shards.Count (and shrink it back) mid-run.
	// Requires Shards with SiblingFetch and RehashOnDeath. Nil keeps the
	// whole tier active and every figure byte-identical to it.
	Autoscale *AutoscaleOptions
	// FlowClients, when > 0, is the cohort size for flow-level
	// measurements: MeasureFlowScalability models that many identical
	// clients as calibrated fluid load with a handful of sampled
	// packet-level clients riding it. Zero leaves flow mode off (calling
	// MeasureFlowScalability then errors); packet-level measurements are
	// unaffected either way.
	FlowClients int
}

// Validate walks every nested option block (Fleet, Cache, Faults,
// Transports, Shards) and returns the first configuration error. Each
// block's Validate is nil-receiver safe, so the walk itself needs no
// per-block dispatch.
func (o Options) Validate() error {
	for _, block := range []interface{ Validate() error }{
		o.Fleet,
		o.Cache,
		o.Faults,
		o.Transports,
		o.Censor,
		o.Shards,
		o.Autoscale,
	} {
		if err := block.Validate(); err != nil {
			return err
		}
	}
	if o.Transports != nil && o.Fleet != nil {
		return fmt.Errorf("scholarcloud: Transports and Fleet are mutually exclusive — the transport ladder manages its own endpoint pool")
	}
	if c := o.Censor; c != nil {
		if c.Profile != "" {
			for _, conflict := range []struct {
				name    string
				present bool
			}{
				{"Fleet", o.Fleet != nil},
				{"Cache", o.Cache != nil},
				{"Faults", o.Faults != nil},
				{"Transports", o.Transports != nil},
				{"Shards", o.Shards != nil},
			} {
				if conflict.present {
					return fmt.Errorf("scholarcloud: Censor.Profile and %s are mutually exclusive — every border of a multi-border world runs its own full deployment (transport ladder, resilience) and its own censor schedule", conflict.name)
				}
			}
		}
		if c.Stage != "" && o.Transports == nil {
			return fmt.Errorf("scholarcloud: Censor.Stage requires a Transports block — a fixed escalation stage is measured against the carrier ladder")
		}
		if c.Episode != "" && o.Faults != nil {
			return fmt.Errorf("scholarcloud: Censor.Episode and Faults are mutually exclusive — run the GFW episode and the infrastructure faults in separate worlds so each measurement isolates one cause")
		}
	}
	if o.Shards != nil {
		if o.Cache == nil {
			return fmt.Errorf("scholarcloud: Shards requires a Cache block — the sharded tier exists to scale the shared content cache, and without one the extra shards would only multiply border traffic")
		}
		if o.Fleet != nil {
			return fmt.Errorf("scholarcloud: Shards and Fleet are mutually exclusive — shard the domestic tier or pool the remote tier, not both in one world")
		}
		if o.Transports != nil {
			return fmt.Errorf("scholarcloud: Shards and Transports are mutually exclusive — the sharded tier runs on the single blinded carrier")
		}
	}
	if o.Autoscale != nil {
		if o.Shards == nil {
			return fmt.Errorf("scholarcloud: Autoscale requires a Shards block — the autoscaler grows and shrinks the sharded domestic tier")
		}
		if o.Autoscale.InitialShards > o.Shards.Count {
			return fmt.Errorf("scholarcloud: AutoscaleOptions.InitialShards (%d) exceeds Shards.Count (%d) — the tier cannot start larger than it is provisioned",
				o.Autoscale.InitialShards, o.Shards.Count)
		}
		if !o.Shards.SiblingFetch || !o.Shards.RehashOnDeath {
			return fmt.Errorf("scholarcloud: Autoscale requires Shards.SiblingFetch and Shards.RehashOnDeath — warm-up and drain move cache keys over the sibling path, and standbys must own no keys")
		}
	}
	if o.FlowClients < 0 {
		return fmt.Errorf("scholarcloud: Options.FlowClients is negative (%d) — set a cohort size, or zero to leave flow mode off", o.FlowClients)
	}
	return nil
}

// NewSimulation builds and starts the world. Close it when done. Invalid
// options (see Options.Validate) panic with a descriptive error, matching
// the construct-or-die contract of the underlying world.
func NewSimulation(opts Options) *Simulation {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	cfg := experiments.Config{
		Seed:                   opts.Seed,
		DisableGFW:             opts.DisableGFW,
		ScholarCloudNoBlinding: opts.NoBlinding,
		SSKeepAlive:            opts.SSKeepAlive,
	}
	if f := opts.Fleet; f != nil {
		cfg.FleetRemotes = f.Remotes
		cfg.FleetSessionsPerRemote = f.SessionsPerRemote
	}
	if c := opts.Cache; c != nil {
		cfg.CacheMB = c.CapacityMB
		cfg.CacheTTL = c.TTL
	}
	if f := opts.Faults; f != nil {
		cfg.FaultScenario = f.Scenario
		cfg.Resilience = f.Resilience
	}
	if t := opts.Transports; t != nil {
		cfg.Transports = t.Rungs
		if len(cfg.Transports) == 0 {
			cfg.Transports = carrier.Known()
		}
		cfg.Resilience = cfg.Resilience || t.Resilience
	}
	censorStage := ""
	if c := opts.Censor; c != nil {
		if c.Profile != "" {
			p, _ := censor.ProfileByName(c.Profile)
			cfg.Censor = &p
		}
		if c.Episode != "" {
			// A GFW episode rides the fault scheduler's script machinery;
			// Validate already guaranteed no Faults block competes for it.
			cfg.FaultScenario = c.Episode
		}
		censorStage = c.Stage
		cfg.Resilience = cfg.Resilience || c.Resilience
	}
	if sh := opts.Shards; sh != nil {
		cfg.Shards = sh.Count
		cfg.ShardSiblingFetch = sh.SiblingFetch
		cfg.ShardRehashOnDeath = sh.RehashOnDeath
	}
	if a := opts.Autoscale; a != nil {
		cfg.AutoscaleInitial = a.InitialShards
		cfg.AutoscalePolicy = a.Policy
		cfg.AutoscaleInterval = a.Interval
	}
	return &Simulation{World: experiments.NewWorld(cfg), flowClients: opts.FlowClients, censorStage: censorStage}
}

// Close stops the simulation.
func (s *Simulation) Close() { s.World.Close() }

// MethodNames lists the access methods under study, in the paper's order.
func (s *Simulation) MethodNames() []string {
	fs := s.World.Methods()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// Summary is a statistics summary (mean, min/max, percentiles)
// re-exported for API users.
type Summary = obs.Summary

// Snapshot returns the current cumulative state of every layer's metrics
// (network, censor, tunnel core, fleet, browser).
func (s *Simulation) Snapshot() obs.Snapshot { return s.World.Obs.Snapshot() }

// Every Measure* result is the experiments package's result for that
// measurement, embedded so its fields and computed-value methods (e.g.
// SuccessRate) read directly off the facade value, beside the
// observability delta of the run.

// PLTResult is one method's Fig. 5a datapoint: first-time and subsequent
// page load time summaries (seconds).
type PLTResult struct {
	experiments.PLTResult
	Obs obs.Snapshot
}

// RTTResult is one method's Fig. 5b datapoint.
type RTTResult struct {
	experiments.RTTResult
	Obs obs.Snapshot
}

// PLRResult is one method's Fig. 5c datapoint.
type PLRResult struct {
	experiments.PLRResult
	Obs obs.Snapshot
}

// TrafficResult is one method's Fig. 6a datapoint.
type TrafficResult struct {
	experiments.TrafficResult
	Obs obs.Snapshot
}

// ScalabilityResult is one (method, concurrency) cell of Fig. 7.
type ScalabilityResult struct {
	experiments.ScalabilityPoint
	Obs obs.Snapshot
}

// FlowResult is a flow-level cohort measurement: a cohort of
// Options.FlowClients identical clients modeled as calibrated fluid load,
// with `Sampled` real packet-level clients riding it for tracing.
type FlowResult struct {
	experiments.FlowPoint
	Obs obs.Snapshot
}

// FaultsResult is a faults-under-load datapoint: ScholarCloud page loads
// measured while the armed fault scenario executed.
type FaultsResult struct {
	experiments.FaultsResult
	Obs obs.Snapshot
}

// TransportsResult is a transport-ladder datapoint: ScholarCloud page
// loads measured under one censor stage, with where the escalation walk
// settled and what the serverless fallback cost (InvocationCostUSD).
type TransportsResult struct {
	experiments.TransportsResult
	Obs obs.Snapshot
}

// CensorEvent is one entry of a border's escalation timeline: a scripted
// stage firing, an adaptive escalation or relaxation, a traffic class
// fingerprinted, a confirmed server blackholed, or the client cohort
// rotating transports in response.
type CensorEvent = censor.Event

// RungSurvival is one transport rung's share of a border's page loads —
// the per-transport survival curve.
type RungSurvival = experiments.RungSurvival

// BorderResult is one border's outcome under a multi-border censorship
// profile: where its censor's escalation settled, where its client
// cohort's transport ladder settled, and what the crackdown cost.
type BorderResult = experiments.BorderOutcome

// CensorshipResult is a multi-border censorship datapoint: every border
// of the armed profile measured under the same concurrent load.
type CensorshipResult struct {
	experiments.CensorPoint
	Obs obs.Snapshot
}

// ShardsResult is a sharded-tier load datapoint: ScholarCloud page loads
// measured across the whole domestic tier under continuous browsing,
// with the border traffic and tier economics the shard count produced.
type ShardsResult struct {
	experiments.ShardsPoint
	Obs obs.Snapshot
}

// ShardKillResult classifies a load sweep's visits around a mid-sweep
// shard seizure: the coordinated response (ring rehash, PAC refresh)
// should confine failures to visits in flight at the seizure instant.
type ShardKillResult struct {
	experiments.ShardKillResult
	Obs obs.Snapshot
}

// AutoscaleResult is a load-schedule datapoint for the domestic tier:
// user experience, border traffic, the tier's capacity timeline, and
// the fractional-VM cost per user. On a static simulation (no Autoscale
// block) the capacity line is constant and the event counts are zero —
// that is the baseline the autoscaled run is compared against.
type AutoscaleResult struct {
	experiments.AutoscalePoint
	Obs obs.Snapshot
}

// PartialError is returned by Measure* methods whose run failed partway:
// it wraps the underlying failure and carries the observability delta
// accumulated up to it, so a caller can still see how far the run got
// (packets sent, resets taken, retries burned) before it died.
type PartialError struct {
	Err error
	// Obs is the metrics delta from the measurement's start to the
	// moment of failure.
	Obs obs.Snapshot
}

// Error implements error.
func (e *PartialError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Err }

// measure is the shared shell of every Measure* method: it brackets the
// world measurement `run` between two registry snapshots and returns the
// world's result with the obs delta. A mid-run failure returns a
// PartialError carrying the delta accumulated up to it instead of
// discarding it.
func measure[T any](s *Simulation, run func() (*T, error)) (T, obs.Snapshot, error) {
	before := s.World.Obs.Snapshot()
	r, err := run()
	delta := s.World.Obs.Snapshot().Sub(before)
	if err != nil {
		var zero T
		return zero, obs.Snapshot{}, &PartialError{Err: err, Obs: delta}
	}
	return *r, delta, nil
}

// MeasurePLT measures first-time and subsequent page load times for the
// named method (Fig. 5a's datapoints).
func (s *Simulation) MeasurePLT(method string, firstRuns, subsequent int) (*PLTResult, error) {
	f, err := s.factory(method)
	if err != nil {
		return nil, err
	}
	r, sn, err := measure(s, func() (*experiments.PLTResult, error) {
		return s.World.MeasurePLT(f, firstRuns, subsequent)
	})
	if err != nil {
		return nil, err
	}
	return &PLTResult{r, sn}, nil
}

// MeasureRTT measures tunneled round-trip time (Fig. 5b).
func (s *Simulation) MeasureRTT(method string, probes int) (*RTTResult, error) {
	f, err := s.factory(method)
	if err != nil {
		return nil, err
	}
	r, sn, err := measure(s, func() (*experiments.RTTResult, error) { return s.World.MeasureRTT(f, probes) })
	if err != nil {
		return nil, err
	}
	return &RTTResult{r, sn}, nil
}

// MeasurePLR measures the packet loss rate over the visit workload
// (Fig. 5c).
func (s *Simulation) MeasurePLR(method string, visits int) (*PLRResult, error) {
	f, err := s.factory(method)
	if err != nil {
		return nil, err
	}
	r, sn, err := measure(s, func() (*experiments.PLRResult, error) { return s.World.MeasurePLR(f, visits) })
	if err != nil {
		return nil, err
	}
	return &PLRResult{r, sn}, nil
}

// MeasureTraffic measures per-access client bytes (Fig. 6a).
func (s *Simulation) MeasureTraffic(method string, visits int) (*TrafficResult, error) {
	f, err := s.factory(method)
	if err != nil {
		return nil, err
	}
	r, sn, err := measure(s, func() (*experiments.TrafficResult, error) { return s.World.MeasureTraffic(f, visits) })
	if err != nil {
		return nil, err
	}
	return &TrafficResult{r, sn}, nil
}

// MeasureScalability measures mean PLT under n concurrent clients
// (Fig. 7).
func (s *Simulation) MeasureScalability(method string, clients, rounds int) (*ScalabilityResult, error) {
	f, err := s.factory(method)
	if err != nil {
		return nil, err
	}
	r, sn, err := measure(s, func() (*experiments.ScalabilityPoint, error) {
		return s.World.MeasureScalability(f, clients, rounds)
	})
	if err != nil {
		return nil, err
	}
	return &ScalabilityResult{r, sn}, nil
}

// MeasureFlowScalability measures the named method under a flow-level
// cohort of Options.FlowClients identical clients: `sampled` of them run
// as real packet-level clients over `rounds` visit rounds, the rest as
// fluid load calibrated from a marginal client's measured demand. The
// simulation must have been built with FlowClients > 0.
func (s *Simulation) MeasureFlowScalability(method string, rounds, sampled int) (*FlowResult, error) {
	if s.flowClients <= 0 {
		return nil, fmt.Errorf("scholarcloud: MeasureFlowScalability needs Options.FlowClients > 0")
	}
	f, err := s.factory(method)
	if err != nil {
		return nil, err
	}
	r, sn, err := measure(s, func() (*experiments.FlowPoint, error) {
		return s.World.MeasureFlowScalability(f, s.flowClients, rounds, sampled)
	})
	if err != nil {
		return nil, err
	}
	return &FlowResult{r, sn}, nil
}

// MeasureFaults runs `clients` concurrent ScholarCloud clients for
// `rounds` visit rounds while the script configured through
// Options.Faults (infrastructure faults) or Options.Censor.Episode (GFW
// interference) executes on the virtual clock. The simulation must have
// been built with one of those blocks.
func (s *Simulation) MeasureFaults(clients, rounds int) (*FaultsResult, error) {
	if s.World.Cfg.FaultScenario == "" {
		return nil, fmt.Errorf("scholarcloud: MeasureFaults needs Options.Faults or Options.Censor.Episode (known scenarios: %s)", strings.Join(faults.Scenarios(), ", "))
	}
	r, sn, err := measure(s, func() (*experiments.FaultsResult, error) { return s.World.MeasureFaults(clients, rounds) })
	if err != nil {
		return nil, err
	}
	return &FaultsResult{r, sn}, nil
}

// MeasureTransports arms the named censor stage (TransportStages()), then
// runs `clients` concurrent ScholarCloud clients for `rounds` visit
// rounds against the carrier escalation ladder. The simulation must have
// been built with a Transports block. An empty stage selects the stage
// configured through Options.Censor.Stage.
func (s *Simulation) MeasureTransports(stage string, clients, rounds int) (*TransportsResult, error) {
	if len(s.World.Cfg.Transports) == 0 {
		return nil, fmt.Errorf("scholarcloud: MeasureTransports needs Options.Transports")
	}
	if stage == "" {
		if s.censorStage == "" {
			return nil, fmt.Errorf("scholarcloud: no censor stage — pass one to MeasureTransports or set Options.Censor.Stage (known stages: %s)",
				strings.Join(experiments.TransportStageNames(), ", "))
		}
		stage = s.censorStage
	}
	st, ok := experiments.TransportStageByName(stage)
	if !ok {
		return nil, fmt.Errorf("scholarcloud: unknown censor stage %q (known stages: %s)",
			stage, strings.Join(experiments.TransportStageNames(), ", "))
	}
	r, sn, err := measure(s, func() (*experiments.TransportsResult, error) {
		return s.World.MeasureTransports(st, clients, rounds)
	})
	if err != nil {
		return nil, err
	}
	return &TransportsResult{r, sn}, nil
}

// MeasureCensorship arms the multi-border profile configured through
// Options.Censor.Profile, then runs `clients` concurrent ScholarCloud
// clients per border for `rounds` visit rounds while every border's
// censor follows its own schedule or adaptive controller. The simulation
// must have been built with a Censor block naming a Profile.
func (s *Simulation) MeasureCensorship(clients, rounds int) (*CensorshipResult, error) {
	if s.World.Cfg.Censor == nil {
		return nil, fmt.Errorf("scholarcloud: MeasureCensorship needs Options.Censor.Profile (known profiles: %s)",
			strings.Join(censor.ProfileNames(), ", "))
	}
	r, sn, err := measure(s, func() (*experiments.CensorPoint, error) { return s.World.MeasureCensorship(clients, rounds) })
	if err != nil {
		return nil, err
	}
	return &CensorshipResult{r, sn}, nil
}

// MeasureShards runs `clients` concurrent ScholarCloud clients for
// `rounds` continuous-browsing visits across the domestic tier and
// reports PLT, border traffic, tier-wide cache activity, and cost per
// served user. It runs on single-proxy simulations too (the Shards=1
// baseline the sharded rows are compared against).
func (s *Simulation) MeasureShards(clients, rounds int) (*ShardsResult, error) {
	r, sn, err := measure(s, func() (*experiments.ShardsPoint, error) { return s.World.MeasureShards(clients, rounds) })
	if err != nil {
		return nil, err
	}
	return &ShardsResult{r, sn}, nil
}

// MeasureShardKill runs `clients` concurrent ScholarCloud clients for
// `rounds` continuous-browsing visits each and seizes domestic shard
// `victim` (1-based among the extra shards; shard 0 hosts the PAC
// endpoint and cannot be the victim) at offset killAt. The simulation
// must have been built with a Shards block.
func (s *Simulation) MeasureShardKill(clients, rounds, victim int, killAt time.Duration) (*ShardKillResult, error) {
	if s.World.Cfg.Shards < 2 {
		return nil, fmt.Errorf("scholarcloud: MeasureShardKill needs Options.Shards")
	}
	r, sn, err := measure(s, func() (*experiments.ShardKillResult, error) {
		return s.World.MeasureShardKill(clients, rounds, victim, killAt)
	})
	if err != nil {
		return nil, err
	}
	return &ShardKillResult{r, sn}, nil
}

// LoadPhase is one segment of an autoscale load schedule: Clients
// concurrent browsers visiting continuously for Rounds visits each.
// Phases run back to back; the offered-load signal the autoscaler
// tracks steps at each boundary.
type LoadPhase = experiments.LoadPhase

// FlashCrowdSchedule returns the canonical flash-crowd load schedule
// (calm trickle, sudden 5x surge, calm again) the autoscale figure
// runs.
func FlashCrowdSchedule() []LoadPhase {
	return experiments.FlashCrowdSchedule(experiments.Quick())
}

// DiurnalSchedule returns the compressed working-day load schedule
// (ramp-up, midday peak, ramp-down) the autoscale figure runs.
func DiurnalSchedule() []LoadPhase {
	return experiments.DiurnalSchedule(experiments.Quick())
}

// MeasureAutoscale drives the load schedule (e.g. FlashCrowdSchedule())
// against the domestic tier, publishing each phase's offered load to
// the autoscaler. It runs on static simulations too — with and without
// an Autoscale block it produces the comparison the autoscale figure
// plots.
func (s *Simulation) MeasureAutoscale(schedule string, phases []LoadPhase) (*AutoscaleResult, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("scholarcloud: MeasureAutoscale needs a non-empty load schedule (e.g. FlashCrowdSchedule())")
	}
	r, sn, err := measure(s, func() (*experiments.AutoscalePoint, error) { return s.World.MeasureAutoscale(schedule, phases) })
	if err != nil {
		return nil, err
	}
	return &AutoscaleResult{r, sn}, nil
}

// TracePageLoad performs one first-time page load through the named
// method with a flow tracer attached to every layer and returns the
// recorded per-hop trace.
func (s *Simulation) TracePageLoad(method string) (*obs.Trace, error) {
	f, err := s.factory(method)
	if err != nil {
		return nil, err
	}
	tr, _, err := s.World.TracePageLoad(f)
	return tr, err
}

// RotateBlinding switches ScholarCloud's blinding scheme on both proxies
// (the paper's agility mechanism).
func (s *Simulation) RotateBlinding(epoch uint64) { s.World.RotateBlinding(epoch) }

func (s *Simulation) factory(method string) (experiments.Factory, error) {
	if f, ok := s.World.FactoryByName(method); ok {
		return f, nil
	}
	return experiments.Factory{}, &UnknownMethodError{Method: method}
}

// UnknownMethodError reports a method name outside the study's set.
type UnknownMethodError struct{ Method string }

// Error implements error.
func (e *UnknownMethodError) Error() string {
	return "scholarcloud: unknown access method " + e.Method
}

// SurveyFigure regenerates Fig. 3's survey distribution text.
func SurveyFigure(seed uint64) string {
	return survey.FormatFigure3(survey.Generate(survey.Respondents, seed))
}
