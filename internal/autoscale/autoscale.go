// Package autoscale drives the sharded domestic tier's size from load.
//
// PR 7 built the tier with a static shard count; the paper's economics
// (two small VMs, 2.2 USD/day) only survive growth if capacity tracks
// demand instead of being provisioned for the worst hour. This package
// is the control loop: it samples the tier's observable state — demand
// (sessions/sec), page-load p99, cache hit rate, host utilization — and
// grows or shrinks the active shard set through internal/tier, which
// warms or drains the moving shard's keys and republishes the PAC under
// one lock.
//
// The policy is target tracking with hysteresis: the desired shard count
// is the demand divided by one shard's calibrated capacity at a target
// utilization, and a transition fires only after the pressure persists
// for a configured number of consecutive samples and the direction's
// cooldown has elapsed. Scale-ups jump straight to the desired count
// (a flash crowd must not climb one shard per cooldown); scale-downs
// step one shard at a time so each leaver can drain. Every decision is
// priced through opscost, so a run reports the cost/latency frontier it
// walked.
//
// The controller is clock-agnostic: Tick is a pure state machine fed
// explicit times, and Run loops it on a netx.Env — the virtual clock in
// simulated worlds (deterministic: ticks fire only while the world
// runs), the wall clock in deployment.
package autoscale

import (
	"fmt"
	"math"
	"sync"
	"time"

	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/opscost"
)

// Sample is one observation of the tier, taken by the controller at each
// tick.
type Sample struct {
	// ActiveShards is the current live shard count.
	ActiveShards int
	// SessionsPerSec is the demand arriving at the tier.
	SessionsPerSec float64
	// P99PLT is the recent page-load-time p99 (0 = unknown; only the
	// latency guard reads it).
	P99PLT time.Duration
	// HitRate is the tier cache hit rate in [0,1] (negative = unknown).
	HitRate float64
	// HostUtilization is the hottest shard's utilization in [0,1]
	// (negative = unknown).
	HostUtilization float64
}

// Policy is the target-tracking scaling policy.
type Policy struct {
	// MinShards and MaxShards bound the active set (defaults 1 and 8).
	MinShards int
	MaxShards int
	// TargetUtilization is the fraction of one shard's capacity the
	// controller steers each shard toward (default 0.6) — headroom below
	// 1.0 absorbs the sampling lag of a flash crowd.
	TargetUtilization float64
	// ShardSessionsPerSec is one shard's calibrated session capacity
	// (default 50). desired = ceil(demand / (TargetUtilization × this)).
	ShardSessionsPerSec float64
	// UpP99 is the latency guard: a sampled p99 above it counts as
	// scale-up pressure even when the demand arithmetic is satisfied
	// (0 disables the guard).
	UpP99 time.Duration
	// UpAfter and DownAfter are the consecutive pressure samples required
	// before acting (defaults 2 and 4) — the hysteresis that keeps a
	// noisy boundary sample from flapping the tier.
	UpAfter   int
	DownAfter int
	// UpCooldown and DownCooldown are the minimum spacing between
	// scale-ups resp. scale-downs (defaults 1m and 5m).
	UpCooldown   time.Duration
	DownCooldown time.Duration
}

// WithDefaults fills unset fields.
func (p Policy) WithDefaults() Policy {
	if p.MinShards == 0 {
		p.MinShards = 1
	}
	if p.MaxShards == 0 {
		p.MaxShards = 8
	}
	if p.TargetUtilization == 0 {
		p.TargetUtilization = 0.6
	}
	if p.ShardSessionsPerSec == 0 {
		p.ShardSessionsPerSec = 50
	}
	if p.UpAfter == 0 {
		p.UpAfter = 2
	}
	if p.DownAfter == 0 {
		p.DownAfter = 4
	}
	if p.UpCooldown == 0 {
		p.UpCooldown = time.Minute
	}
	if p.DownCooldown == 0 {
		p.DownCooldown = 5 * time.Minute
	}
	return p
}

// Validate rejects nonsensical policies (after defaulting).
func (p Policy) Validate() error {
	p = p.WithDefaults()
	if p.MinShards < 1 {
		return fmt.Errorf("autoscale: MinShards must be >= 1 (got %d)", p.MinShards)
	}
	if p.MaxShards < p.MinShards {
		return fmt.Errorf("autoscale: MaxShards (%d) below MinShards (%d)", p.MaxShards, p.MinShards)
	}
	if p.TargetUtilization <= 0 || p.TargetUtilization > 1 {
		return fmt.Errorf("autoscale: TargetUtilization must be in (0,1] (got %g)", p.TargetUtilization)
	}
	if p.ShardSessionsPerSec <= 0 {
		return fmt.Errorf("autoscale: ShardSessionsPerSec must be positive (got %g)", p.ShardSessionsPerSec)
	}
	if p.UpAfter < 1 || p.DownAfter < 1 {
		return fmt.Errorf("autoscale: UpAfter/DownAfter must be >= 1 (got %d/%d)", p.UpAfter, p.DownAfter)
	}
	if p.UpCooldown < 0 || p.DownCooldown < 0 {
		return fmt.Errorf("autoscale: cooldowns must be non-negative (got %v/%v)", p.UpCooldown, p.DownCooldown)
	}
	if p.UpP99 < 0 {
		return fmt.Errorf("autoscale: UpP99 must be non-negative (got %v)", p.UpP99)
	}
	return nil
}

// desired is the target-tracking core: the shard count that serves
// demand at the target per-shard utilization, clamped to the policy
// bounds.
func (p Policy) desired(sessionsPerSec float64) int {
	perShard := p.TargetUtilization * p.ShardSessionsPerSec
	d := int(math.Ceil(sessionsPerSec / perShard))
	if d < p.MinShards {
		d = p.MinShards
	}
	if d > p.MaxShards {
		d = p.MaxShards
	}
	return d
}

// Decision records one scaling action and its price.
type Decision struct {
	// At is the controller clock reading when the decision fired.
	At time.Time
	// From and To are the active shard counts around the transition.
	From, To int
	// Reason is what tripped it: "demand", "p99-latency", or "idle".
	Reason string
	// VMPerDayUSD is the daily VM bill at To shards (tier plus the remote
	// proxy), priced through opscost.
	VMPerDayUSD float64
	// DeltaUSD is the daily cost change this decision causes (positive
	// for scale-ups).
	DeltaUSD float64
	// Err records an Apply failure; the tier stays at From when non-nil.
	Err error
}

// Config wires a Controller to a tier.
type Config struct {
	// Policy is the scaling policy (zero fields defaulted).
	Policy Policy
	// Pricing prices decisions (zero value = opscost.DefaultPricing; its
	// VMs field is ignored — the controller prices To+1 boxes).
	Pricing opscost.Pricing
	// Sample reads the tier's current state at each tick.
	Sample func() Sample
	// Apply transitions the tier from from to to active shards: admit
	// (with cache warm-up) or retire (with drain) one shard at a time.
	Apply func(from, to int) error
}

// Controller runs the scaling policy against a tier.
type Controller struct {
	cfg Config

	mu          sync.Mutex
	upStreak    int
	downStreak  int
	lastUp      time.Time
	lastDown    time.Time
	haveUp      bool
	haveDown    bool
	decisions   []Decision
	lastActive  int64
	lastDesired int64
	stopped     bool

	ticks       obs.Counter
	ups         obs.Counter
	downs       obs.Counter
	applyErrors obs.Counter
}

// New builds a controller. cfg.Sample and cfg.Apply must be set.
func New(cfg Config) (*Controller, error) {
	cfg.Policy = cfg.Policy.WithDefaults()
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sample == nil || cfg.Apply == nil {
		return nil, fmt.Errorf("autoscale: Config.Sample and Config.Apply are required")
	}
	if cfg.Pricing == (opscost.Pricing{}) {
		cfg.Pricing = opscost.DefaultPricing()
	}
	return &Controller{cfg: cfg}, nil
}

// Policy returns the defaulted policy in force.
func (c *Controller) Policy() Policy { return c.cfg.Policy }

// vmPerDay prices n active shards plus the remote proxy.
func (c *Controller) vmPerDay(n int) float64 {
	p := c.cfg.Pricing
	p.VMs = n + 1
	return opscost.Estimate(opscost.Workload{}, p).TotalUSD
}

// Tick advances the pure policy state machine one control interval and
// returns the decision it would take (nil = hold). It updates hysteresis
// and cooldown state but does not touch the tier; Step is Tick plus
// Apply. Exposed so tests and benchmarks can drive the policy without a
// tier behind it.
func (c *Controller) Tick(now time.Time, s Sample) *Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tickLocked(now, s)
}

func (c *Controller) tickLocked(now time.Time, s Sample) *Decision {
	c.ticks.Inc()
	p := c.cfg.Policy
	desired := p.desired(s.SessionsPerSec)
	reason := "demand"
	if p.UpP99 > 0 && s.P99PLT > p.UpP99 && desired <= s.ActiveShards && s.ActiveShards < p.MaxShards {
		// Demand arithmetic says hold, but users are hurting: treat the
		// latency breach as pressure for one more shard.
		desired = s.ActiveShards + 1
		reason = "p99-latency"
	}
	c.lastActive, c.lastDesired = int64(s.ActiveShards), int64(desired)

	switch {
	case desired > s.ActiveShards:
		c.upStreak++
		c.downStreak = 0
		if c.upStreak < p.UpAfter {
			return nil
		}
		if c.haveUp && now.Sub(c.lastUp) < p.UpCooldown {
			return nil
		}
		c.upStreak = 0
		c.lastUp, c.haveUp = now, true
		return &Decision{
			At: now, From: s.ActiveShards, To: desired, Reason: reason,
			VMPerDayUSD: c.vmPerDay(desired),
			DeltaUSD:    c.vmPerDay(desired) - c.vmPerDay(s.ActiveShards),
		}
	case desired < s.ActiveShards:
		c.downStreak++
		c.upStreak = 0
		if c.downStreak < p.DownAfter {
			return nil
		}
		if c.haveDown && now.Sub(c.lastDown) < p.DownCooldown {
			return nil
		}
		// Scale down one shard at a time so the leaver drains cleanly;
		// the next cooldown window takes the next step if the surplus
		// persists.
		to := s.ActiveShards - 1
		c.downStreak = 0
		c.lastDown, c.haveDown = now, true
		return &Decision{
			At: now, From: s.ActiveShards, To: to, Reason: "idle",
			VMPerDayUSD: c.vmPerDay(to),
			DeltaUSD:    c.vmPerDay(to) - c.vmPerDay(s.ActiveShards),
		}
	default:
		c.upStreak, c.downStreak = 0, 0
		return nil
	}
}

// Step samples the tier, ticks the policy, and applies any decision,
// recording it (and any Apply error) in the decision log.
func (c *Controller) Step(now time.Time) *Decision {
	s := c.cfg.Sample()
	c.mu.Lock()
	d := c.tickLocked(now, s)
	c.mu.Unlock()
	if d == nil {
		return nil
	}
	if err := c.cfg.Apply(d.From, d.To); err != nil {
		d.Err = err
		c.applyErrors.Inc()
	} else if d.To > d.From {
		c.ups.Inc()
	} else {
		c.downs.Inc()
	}
	c.mu.Lock()
	c.decisions = append(c.decisions, *d)
	c.mu.Unlock()
	return d
}

// Run loops Step every interval on env's clock until Stop. It blocks;
// callers spawn it on env.Spawn. On the virtual clock the loop only
// advances while the world runs, so a simulated tier scales at exactly
// the same virtual instants in every run.
func (c *Controller) Run(env netx.Env, interval time.Duration) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	for {
		env.Clock.Sleep(interval)
		c.mu.Lock()
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		c.Step(env.Clock.Now())
	}
}

// Stop makes Run return at its next wakeup.
func (c *Controller) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
}

// Decisions returns a copy of the decision log in firing order.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.decisions...)
}

// Instrument publishes the controller's counters and gauges on reg; they
// surface on the deployment's admin /metrics endpoint alongside the
// tier's shard.director.* membership gauges.
func (c *Controller) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("autoscale.ticks", &c.ticks)
	reg.RegisterCounter("autoscale.scale_up", &c.ups)
	reg.RegisterCounter("autoscale.scale_down", &c.downs)
	reg.RegisterCounter("autoscale.apply_errors", &c.applyErrors)
	reg.RegisterGaugeFunc("autoscale.active_shards", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.lastActive
	})
	reg.RegisterGaugeFunc("autoscale.desired_shards", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.lastDesired
	})
}
