// Package faults is a scriptable fault injector for the simulated world.
// A Scheduler executes a script of timed impairment events on the virtual
// clock: loss bursts, latency spikes, bandwidth collapses and full flaps
// on a netsim link; "reset storm" and throttling episodes on the GFW; and
// crash/restart events targeted at fleet remote proxies.
//
// Windowed link impairments compose as overlays on the link's base
// configuration (captured once, at injection start): concurrent loss
// bursts combine multiplicatively, latency spikes add, bandwidth factors
// multiply, and a flap forces total loss. When an event's window closes
// the overlay is removed and the effective configuration recomputed, so
// overlapping windows of different kinds behave independently.
//
// Everything runs on netx primitives over the virtual clock, so a given
// (seed, script) pair perturbs the world at exactly the same virtual
// instants run after run — fault experiments stay byte-reproducible under
// any `-parallel N`.
package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scholarcloud/internal/gfw"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
)

// Kind identifies what an Event impairs.
type Kind int

// Event kinds.
const (
	// LossBurst raises the link's loss probability by Loss for Duration.
	LossBurst Kind = iota
	// LatencySpike adds Delay and Jitter to the link for Duration.
	LatencySpike
	// BandwidthCollapse multiplies the link's bandwidth by Factor for
	// Duration.
	BandwidthCollapse
	// LinkFlap partitions the link completely (every packet lost) for
	// Duration.
	LinkFlap
	// ResetStorm makes the GFW answer a Rate fraction of tracked TCP
	// packets with forged RSTs for Duration.
	ResetStorm
	// Throttle makes the GFW drop an extra Rate fraction of tracked TCP
	// packets for Duration.
	Throttle
	// RemoteCrash kills fleet remote Target at onset; if Duration is
	// positive the remote is restarted when the window closes.
	RemoteCrash
)

// String names the kind for traces and errors.
func (k Kind) String() string {
	switch k {
	case LossBurst:
		return "loss-burst"
	case LatencySpike:
		return "latency-spike"
	case BandwidthCollapse:
		return "bandwidth-collapse"
	case LinkFlap:
		return "link-flap"
	case ResetStorm:
		return "reset-storm"
	case Throttle:
		return "throttle"
	case RemoteCrash:
		return "remote-crash"
	default:
		return fmt.Sprintf("kind-%d", int(k))
	}
}

// Event is one scripted impairment.
type Event struct {
	// At is the event's onset, as a virtual-time offset from Inject.
	At time.Duration
	// Duration is the impairment window. Link and GFW impairments revert
	// when it closes; a RemoteCrash with positive Duration restarts the
	// remote then (zero leaves it down).
	Duration time.Duration
	Kind     Kind

	Loss   float64       // LossBurst: extra loss probability
	Delay  time.Duration // LatencySpike: added one-way delay
	Jitter time.Duration // LatencySpike: added jitter
	Factor float64       // BandwidthCollapse: bandwidth multiplier
	Rate   float64       // ResetStorm / Throttle: episode intensity
	Target int           // RemoteCrash: fleet member index (0 = primary)
}

// Config wires a Scheduler to the world it impairs. Link, GFW and the
// remote callbacks are each optional; events targeting an absent facility
// are counted as skipped rather than failing the run.
type Config struct {
	Env netx.Env
	// Link is the impaired link (the border link in the study world).
	Link *netsim.LinkHandle
	// GFW receives reset-storm and throttle episodes.
	GFW *gfw.GFW
	// CrashRemote kills fleet remote i.
	CrashRemote func(i int)
	// RestartRemote brings fleet remote i back up.
	RestartRemote func(i int)
	// Seed derives the deterministic onset jitter stream.
	Seed uint64
	// OnsetJitter spreads each event's onset by a deterministic
	// pseudo-random offset in [0, OnsetJitter), so repeated scenarios
	// don't phase-lock with periodic client traffic. Zero disables it.
	OnsetJitter time.Duration
}

// Scheduler executes a fault script. Create with New, then call Inject
// once the world is running.
type Scheduler struct {
	cfg    Config
	script []Event

	mu      sync.Mutex
	started bool
	base    netsim.LinkConfig
	gfwBase gfw.Policy    // GFW posture at injection start; episodes overlay it
	active  map[int]Event // windowed events currently applied, by index

	applied  obs.Counter
	reverted obs.Counter
	crashes  obs.Counter
	restarts obs.Counter
	skipped  obs.Counter

	flowTrace *obs.Trace
}

// New builds a scheduler for script. Events are executed in onset order;
// the script is copied and may be reused by the caller.
func New(cfg Config, script []Event) *Scheduler {
	s := &Scheduler{
		cfg:    cfg,
		script: append([]Event(nil), script...),
		active: make(map[int]Event),
	}
	sort.SliceStable(s.script, func(i, j int) bool { return s.script[i].At < s.script[j].At })
	return s
}

// Instrument publishes the scheduler's event counters on reg. Call once,
// before Inject.
func (s *Scheduler) Instrument(reg *obs.Registry) {
	if s == nil {
		return
	}
	reg.RegisterCounter("faults.events_applied", &s.applied)
	reg.RegisterCounter("faults.events_reverted", &s.reverted)
	reg.RegisterCounter("faults.remote_crashes", &s.crashes)
	reg.RegisterCounter("faults.remote_restarts", &s.restarts)
	reg.RegisterCounter("faults.events_skipped", &s.skipped)
}

// SetTrace installs (or, with nil, removes) a flow tracer that records
// every applied and reverted fault event.
func (s *Scheduler) SetTrace(t *obs.Trace) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flowTrace = t
}

// Script returns the scheduler's events in execution order.
func (s *Scheduler) Script() []Event { return append([]Event(nil), s.script...) }

// Inject starts executing the script on the virtual clock. Offsets are
// relative to the moment Inject is called. Safe to call on a nil
// scheduler (no-op) and idempotent on a live one, so measurement runners
// can arm faults unconditionally.
func (s *Scheduler) Inject() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	if s.cfg.Link != nil {
		s.base = s.cfg.Link.Config()
	}
	if s.cfg.GFW != nil {
		s.gfwBase = s.cfg.GFW.ActivePolicy()
	}
	s.mu.Unlock()
	for i, e := range s.script {
		i, e := i, e
		onset := e.At + s.onsetJitter(i)
		s.cfg.Env.Spawn.Go(func() {
			s.cfg.Env.Clock.Sleep(onset)
			if !s.apply(i, e) {
				return
			}
			if e.Duration > 0 {
				s.cfg.Env.Clock.Sleep(e.Duration)
				s.revert(i, e)
			}
		})
	}
}

// apply activates event i and reports whether it took effect.
func (s *Scheduler) apply(i int, e Event) bool {
	switch e.Kind {
	case RemoteCrash:
		if s.cfg.CrashRemote == nil {
			s.skipped.Inc()
			return false
		}
		s.cfg.CrashRemote(e.Target)
		s.crashes.Inc()
		s.trace("apply", e)
		// The "revert" of a crash is the restart.
		return e.Duration > 0 && s.cfg.RestartRemote != nil
	case ResetStorm, Throttle:
		if s.cfg.GFW == nil {
			s.skipped.Inc()
			return false
		}
	default:
		if s.cfg.Link == nil {
			s.skipped.Inc()
			return false
		}
	}
	s.mu.Lock()
	s.active[i] = e
	s.recomputeLocked()
	s.mu.Unlock()
	s.applied.Inc()
	s.trace("apply", e)
	return true
}

// revert deactivates event i when its window closes.
func (s *Scheduler) revert(i int, e Event) {
	if e.Kind == RemoteCrash {
		s.cfg.RestartRemote(e.Target)
		s.restarts.Inc()
		s.trace("restart", e)
		return
	}
	s.mu.Lock()
	delete(s.active, i)
	s.recomputeLocked()
	s.mu.Unlock()
	s.reverted.Inc()
	s.trace("revert", e)
}

// recomputeLocked folds every active overlay onto the base link config
// and the GFW's episode state. Overlays are folded in script order so
// floating-point composition is identical run to run.
func (s *Scheduler) recomputeLocked() {
	cfg := s.base
	storm, throttle := 0.0, 0.0
	idx := make([]int, 0, len(s.active))
	for i := range s.active {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		e := s.active[i]
		switch e.Kind {
		case LossBurst:
			cfg.BaseLoss = 1 - (1-cfg.BaseLoss)*(1-e.Loss)
		case LatencySpike:
			cfg.Delay += e.Delay
			cfg.Jitter += e.Jitter
		case BandwidthCollapse:
			if cfg.Bandwidth > 0 && e.Factor > 0 {
				cfg.Bandwidth *= e.Factor
			}
		case LinkFlap:
			cfg.BaseLoss = 1
		case ResetStorm:
			if e.Rate > storm {
				storm = e.Rate
			}
		case Throttle:
			if e.Rate > throttle {
				throttle = e.Rate
			}
		}
	}
	if s.cfg.Link != nil {
		s.cfg.Link.SetConfig(cfg)
	}
	if s.cfg.GFW != nil {
		// Overlay the episode intensities on the posture captured at
		// injection start, so an armed crackdown or blackhole list
		// survives the episode's start and end.
		p := s.gfwBase
		p.ResetStorm = storm
		p.Throttle = throttle
		s.cfg.GFW.Apply(p)
	}
}

func (s *Scheduler) trace(phase string, e Event) {
	s.mu.Lock()
	t := s.flowTrace
	s.mu.Unlock()
	t.Addf("faults", phase, "%s target=%d dur=%v", e.Kind, e.Target, e.Duration)
}

// onsetJitter draws the deterministic onset offset for event i.
func (s *Scheduler) onsetJitter(i int) time.Duration {
	if s.cfg.OnsetJitter <= 0 {
		return 0
	}
	x := (s.cfg.Seed ^ 0xFA017) + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return time.Duration(float64(x>>11) / float64(1<<53) * float64(s.cfg.OnsetJitter))
}
