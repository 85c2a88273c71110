package censor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scholarcloud/internal/gfw"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
)

// Sample is one observation of a border, taken by its controller at each
// tick.
type Sample struct {
	// Suspicious is the border's cumulative flow count per suspicious
	// class (a filtered view of gfw.ClassCounts).
	Suspicious map[gfw.Class]int64
	// Confirmed lists the servers active probing has confirmed, sorted.
	Confirmed []string
}

// Config wires a Controller to one border.
type Config struct {
	// Border names the border in events and errors.
	Border string
	// Policy is the escalation policy (zero fields defaulted).
	Policy Adaptive
	// Base is the border's standing posture; every level overlays it.
	Base gfw.Policy
	// Sample reads the border's current state at each tick.
	Sample func() Sample
	// Apply installs a posture on the border's firewall.
	Apply func(gfw.Policy)
}

// Controller escalates one border region-by-region from what its own
// classifier sees. It is a pure state machine (Tick) looped on a
// netx.Env (Run) — deterministic on the virtual clock, live on the wall
// clock.
type Controller struct {
	cfg Config
	pol Adaptive

	mu        sync.Mutex
	level     Level
	streak    int // consecutive pressure ticks
	quiet     int // consecutive quiet ticks
	lastTotal int64
	nConfirm  int      // confirmed servers already blackholed
	blocked   []string // fingerprinted classes, in blocking order
	events    []Event
	stopped   bool

	ticks       obs.Counter
	escalations obs.Counter
	relaxes     obs.Counter
}

// NewController builds a controller. cfg.Sample and cfg.Apply must be
// set.
func NewController(cfg Config) (*Controller, error) {
	pol := cfg.Policy.WithDefaults()
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sample == nil || cfg.Apply == nil {
		return nil, fmt.Errorf("censor: Config.Sample and Config.Apply are required")
	}
	return &Controller{cfg: cfg, pol: pol}, nil
}

// Policy returns the defaulted policy in force.
func (c *Controller) Policy() Adaptive { return c.pol }

// Level returns the border's current escalation rung.
func (c *Controller) Level() Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// Events returns a copy of the border's escalation timeline so far.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// postureLocked composes the posture for the current level: the base,
// plus the disruption episode, plus cleartext scrutiny, plus the
// fingerprinted classes. Confirmed-server blackholes ride on gfw.Apply's
// cumulative BlockIPs semantics, so they need no carrying here.
func (c *Controller) postureLocked() gfw.Policy {
	p := c.cfg.Base
	p.BlockClasses = append([]gfw.Class(nil), c.cfg.Base.BlockClasses...)
	p.BlockIPs = nil
	if c.level >= LevelDisruption {
		p.ResetStorm = c.pol.Storm
		p.Throttle = c.pol.Throttle
	}
	if c.level >= LevelProbing {
		p.ScrutinizeCleartext = true
	}
	if c.level >= LevelFingerprint {
		for _, name := range c.blocked {
			p.BlockClasses = append(p.BlockClasses, gfw.Class(name))
		}
	}
	return p
}

// dominantLocked picks the not-yet-blocked suspicious class with the
// most flows — the fingerprint the censor writes next. Ties break in the
// policy's class order, so the choice is deterministic.
func (c *Controller) dominantLocked(s Sample) (gfw.Class, bool) {
	already := make(map[string]bool, len(c.blocked)+len(c.cfg.Base.BlockClasses))
	for _, name := range c.blocked {
		already[name] = true
	}
	for _, cl := range c.cfg.Base.BlockClasses {
		already[string(cl)] = true
	}
	var best gfw.Class
	bestN := int64(-1)
	for _, cl := range c.pol.Suspicious {
		if already[string(cl)] {
			continue
		}
		if n := s.Suspicious[cl]; n > bestN {
			best, bestN = cl, n
		}
	}
	return best, bestN > 0
}

// Tick advances the state machine one control interval. at is the
// virtual-time offset from arming; s is the border's current state.
// Exposed so tests can drive the policy without a firewall behind it.
func (c *Controller) Tick(at time.Duration, s Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks.Inc()

	var total int64
	for _, n := range s.Suspicious {
		total += n
	}
	delta := total - c.lastTotal
	c.lastTotal = total

	// Pressure: fresh suspicious flows this tick — or, at the filtering
	// level, any standing population above the trigger (pooled carrier
	// sessions stop producing fresh flows once established).
	pressure := delta >= c.pol.SuspiciousPerTick ||
		(c.level == LevelFiltering && total >= c.pol.Trigger)
	if pressure {
		c.streak++
		c.quiet = 0
	} else {
		c.streak = 0
		c.quiet++
	}

	// While probing or above, blackhole every server the probes have
	// newly confirmed. BlockIPs accumulate in the firewall, so only the
	// fresh tail is sent.
	if c.level >= LevelProbing && len(s.Confirmed) > c.nConfirm {
		fresh := append([]string(nil), s.Confirmed[c.nConfirm:]...)
		c.nConfirm = len(s.Confirmed)
		p := c.postureLocked()
		p.BlockIPs = fresh
		c.cfg.Apply(p)
		c.events = append(c.events, Event{
			At: at, Border: c.cfg.Border, Kind: "blackhole",
			To:     fmt.Sprintf("%d servers", c.nConfirm),
			Reason: fmt.Sprintf("active probing confirmed %d new servers", len(fresh)),
		})
	}

	switch {
	case pressure && c.streak >= c.pol.EscalateAfter:
		c.streak = 0
		switch {
		case c.level < c.pol.MaxLevel:
			from := c.level
			c.level++
			if c.level == LevelFingerprint {
				if cl, ok := c.dominantLocked(s); ok {
					c.blocked = append(c.blocked, string(cl))
				}
			}
			c.cfg.Apply(c.postureLocked())
			c.escalations.Inc()
			c.events = append(c.events, Event{
				At: at, Border: c.cfg.Border, Kind: "escalate",
				From: from.String(), To: c.level.String(),
				Reason: fmt.Sprintf("%d suspicious flows (+%d this tick)", total, delta),
			})
		case c.level == LevelFingerprint:
			// Already at the top: continued pressure means the blocked
			// fingerprint wasn't the whole story — block the next
			// dominant class.
			cl, ok := c.dominantLocked(s)
			if !ok {
				break
			}
			c.blocked = append(c.blocked, string(cl))
			c.cfg.Apply(c.postureLocked())
			c.events = append(c.events, Event{
				At: at, Border: c.cfg.Border, Kind: "block-class",
				To:     string(cl),
				Reason: fmt.Sprintf("dominant class under continued pressure (%d flows)", s.Suspicious[cl]),
			})
		}
	case !pressure && c.quiet >= c.pol.RelaxAfter && c.level > LevelFiltering:
		c.quiet = 0
		from := c.level
		c.level--
		if c.level < LevelFingerprint {
			c.blocked = nil
		}
		c.cfg.Apply(c.postureLocked())
		c.relaxes.Inc()
		c.events = append(c.events, Event{
			At: at, Border: c.cfg.Border, Kind: "relax",
			From: from.String(), To: c.level.String(),
			Reason: fmt.Sprintf("%d quiet ticks", c.pol.RelaxAfter),
		})
	}
}

// Run loops Tick every Interval on env's clock until Stop, after an
// initial phase delay. The phase staggers borders that share a policy:
// derived from each border's seed, it keeps their control loops from
// phase-locking while staying fully deterministic. Run blocks; callers
// spawn it on env.Spawn.
func (c *Controller) Run(env netx.Env, phase time.Duration) {
	start := env.Clock.Now()
	if phase > 0 {
		env.Clock.Sleep(phase)
	}
	for {
		env.Clock.Sleep(c.pol.Interval)
		c.mu.Lock()
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		c.Tick(env.Clock.Now().Sub(start), c.cfg.Sample())
	}
}

// Stop makes Run return at its next wakeup.
func (c *Controller) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
}

// Instrument publishes the controller's counters and level gauge on reg
// under prefix (e.g. "censor.inland.").
func (c *Controller) Instrument(reg *obs.Registry, prefix string) {
	reg.RegisterCounter(prefix+"ticks", &c.ticks)
	reg.RegisterCounter(prefix+"escalations", &c.escalations)
	reg.RegisterCounter(prefix+"relaxes", &c.relaxes)
	reg.RegisterGaugeFunc(prefix+"level", func() int64 {
		return int64(c.Level())
	})
}

// Phase derives a border's deterministic control-loop offset in
// [0, interval) from the world seed and the border's index — a splitmix
// draw, so two borders with identical policies and different seeds tick
// at independent but reproducible instants.
func Phase(seed uint64, border int, interval time.Duration) time.Duration {
	x := seed ^ 0xC3A50E5C0FF5E7 ^ uint64(border+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return time.Duration(float64(x>>11) / float64(1<<53) * float64(interval))
}

// SortedConfirmed normalizes a firewall's confirmed-server list for a
// Sample: gfw.ConfirmedServers iterates a map, so the caller must sort
// before the controller diffs consecutive readings.
func SortedConfirmed(eps []string) []string {
	out := append([]string(nil), eps...)
	sort.Strings(out)
	return out
}
