// The escalation ladder: prefer the fast-but-blockable carrier, detect
// sustained transport-level failure, climb to the next rung, and probe
// back down once the lower rung recovers — the GFW/Tor arms race
// (Winter & Lindskog) reduced to a policy object.
package carrier

import (
	"sync"
	"time"

	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
)

// Ladder defaults.
const (
	// DefaultTripAfter is how many consecutive failures on the active
	// rung trigger escalation.
	DefaultTripAfter = 3
	// DefaultProbeInterval paces recovery probes toward the rung below.
	DefaultProbeInterval = 30 * time.Second
	// DefaultProbeTimeout bounds one recovery probe (dial + echo).
	DefaultProbeTimeout = 2 * time.Second
)

// LadderConfig configures the escalation policy.
type LadderConfig struct {
	Env netx.Env
	// TripAfter is the consecutive-failure threshold per rung
	// (DefaultTripAfter when zero).
	TripAfter int
	// ProbeInterval is the recovery-probe cadence
	// (DefaultProbeInterval when zero).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one recovery probe (DefaultProbeTimeout when
	// zero).
	ProbeTimeout time.Duration
	// OnSwitch, if set, is notified of every escalation and recovery.
	OnSwitch func(from, to, reason string)
}

func (cfg LadderConfig) withDefaults() LadderConfig {
	if cfg.TripAfter <= 0 {
		cfg.TripAfter = DefaultTripAfter
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	return cfg
}

// Ladder tracks which rung of the transport ladder is active. Rungs are
// ordered fastest (most blockable) first. Failure reports against the
// active rung escalate; a background prober steps back down when the
// rung below answers again.
//
// Ladder implements fleet.Escalator.
type Ladder struct {
	cfg   LadderConfig
	rungs []Transport

	mu      sync.Mutex
	active  int
	fails   int
	closed  bool
	probing bool

	escalations obs.Counter
	recoveries  obs.Counter
	probes      obs.Counter
}

// NewLadder builds a ladder over rungs (fastest first). Call Start to
// enable recovery probing.
func NewLadder(cfg LadderConfig, rungs ...Transport) *Ladder {
	if len(rungs) == 0 {
		panic("carrier: ladder needs at least one rung")
	}
	return &Ladder{cfg: cfg.withDefaults(), rungs: rungs}
}

// Instrument registers the ladder's counters and the active-rung gauge.
func (l *Ladder) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("carrier.ladder.escalations", &l.escalations)
	reg.RegisterCounter("carrier.ladder.recoveries", &l.recoveries)
	reg.RegisterCounter("carrier.ladder.probes", &l.probes)
	reg.RegisterFunc("carrier.ladder.active_rung", func() int64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return int64(l.active)
	})
}

// Rungs returns the transports in ladder order.
func (l *Ladder) Rungs() []Transport { return l.rungs }

// Escalations reports how many times the ladder climbed a rung.
func (l *Ladder) Escalations() int64 { return l.escalations.Value() }

// Recoveries reports how many times the ladder stepped back down.
func (l *Ladder) Recoveries() int64 { return l.recoveries.Value() }

// Active returns the currently preferred transport.
func (l *Ladder) Active() Transport {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rungs[l.active]
}

// ActiveName returns the active rung's transport name.
func (l *Ladder) ActiveName() string { return l.Active().Name() }

// NextName returns the rung above the active one — where a hedged retry
// should land — or the active name when already on the last rung.
func (l *Ladder) NextName() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active+1 < len(l.rungs) {
		return l.rungs[l.active+1].Name()
	}
	return l.rungs[l.active].Name()
}

// RecordFailure reports a transport-level failure (dial timeout, carrier
// reset) on the named transport. Failures only count against the active
// rung; TripAfter consecutive ones escalate to the next rung.
func (l *Ladder) RecordFailure(transport string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || transport != l.rungs[l.active].Name() {
		return
	}
	l.fails++
	if l.fails < l.cfg.TripAfter || l.active+1 >= len(l.rungs) {
		return
	}
	from := l.rungs[l.active].Name()
	l.active++
	l.fails = 0
	l.escalations.Inc()
	l.notifyLocked(from, l.rungs[l.active].Name(), "sustained transport failure")
}

// RecordSuccess reports a successful use of the named transport, clearing
// the active rung's failure streak.
func (l *Ladder) RecordSuccess(transport string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if transport == l.rungs[l.active].Name() {
		l.fails = 0
	}
}

func (l *Ladder) notifyLocked(from, to, reason string) {
	if l.cfg.OnSwitch != nil {
		from, to, reason := from, to, reason
		l.cfg.Env.Spawn.Go(func() { l.cfg.OnSwitch(from, to, reason) })
	}
}

// Start launches the recovery prober on a managed goroutine: while
// escalated, it periodically redials the rung below and steps back down
// when that rung answers an echo again.
func (l *Ladder) Start() {
	l.mu.Lock()
	if l.probing || l.closed {
		l.mu.Unlock()
		return
	}
	l.probing = true
	l.mu.Unlock()
	l.cfg.Env.Spawn.Go(l.probeLoop)
}

// Close stops the recovery prober.
func (l *Ladder) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

func (l *Ladder) probeLoop() {
	for {
		l.cfg.Env.Clock.Sleep(l.cfg.ProbeInterval)
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		if l.active == 0 {
			l.mu.Unlock()
			continue
		}
		below := l.rungs[l.active-1]
		l.mu.Unlock()

		l.probes.Inc()
		if !l.probe(below) {
			continue
		}

		l.mu.Lock()
		if l.closed || l.active == 0 || l.rungs[l.active-1] != below {
			l.mu.Unlock()
			continue
		}
		from := l.rungs[l.active].Name()
		l.active--
		l.fails = 0
		l.recoveries.Inc()
		l.notifyLocked(from, below.Name(), "recovery probe succeeded")
		l.mu.Unlock()
	}
}

// Recovery-probe shape. A bare 9-byte ping carries too little for an
// on-path DPI classifier to fingerprint, so it would sail through a
// crackdown and make a blocked rung look healthy. Each probe echo
// instead carries probePadBytes of high-entropy padding — about what a
// real request's first flight looks like on the wire — and the probe
// requires several round trips, so a censor resetting the transport's
// fingerprint kills it even if the first echo sneaks through.
const (
	probeEchoes   = 3
	probePadBytes = 128
)

// probePad builds the probe padding: fixed pseudorandom bytes
// (splitmix64), deterministic so probe traffic never perturbs
// reproducibility. High entropy matters — any blinding scheme maps a
// uniform plaintext to a uniform wire image, so the probe presents the
// transport's true fingerprint.
func probePad() []byte {
	pad := make([]byte, probePadBytes)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range pad {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		pad[i] = byte(z ^ (z >> 31))
	}
	return pad
}

// probe checks one rung end to end: dial, wrap, and await padded
// echoes. Any failure — including a censor reset mid-echo — leaves the
// ladder where it is.
func (l *Ladder) probe(t Transport) bool {
	raw, err := DialBounded(l.cfg.Env, t.Name(), l.cfg.ProbeTimeout, t.Dial)
	if err != nil {
		return false
	}
	sess := t.Wrap(raw)
	defer sess.Close()
	pad := probePad()
	for i := 0; i < probeEchoes; i++ {
		if _, err := sess.RTTPadded(l.cfg.ProbeTimeout, pad); err != nil {
			return false
		}
	}
	return true
}
