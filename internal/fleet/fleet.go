// Package fleet is the remote-proxy control plane: it manages N remote
// endpoints for a domestic proxy, each with a small pool of pre-dialed
// blinded carrier sessions, continuously health-probed, and picks a
// carrier per stream with a load- and health-aware policy.
//
// A Pool is a domestic proxy's only path across the border (core's
// AssembleBorder builds it), so every deployment is some pool: the
// paper's single remote is a one-member pool — probed, ejected and
// re-admitted like any other — and its two VMs with a manual standby a
// two-member one (the standby is just a second endpoint the pick policy
// fails over to). A production-scale ScholarCloud needs what
// CensorLess-style
// systems demonstrate — capacity from fanning out across many cheap,
// rotatable endpoints — and what ICLab measures — blocking that shifts
// over space and time, so per-remote health must be observed
// continuously, not assumed. The Pool provides:
//
//   - tunnel pooling: SessionsPerRemote pre-dialed carriers per endpoint,
//     so concurrent streams spread across carriers instead of
//     head-of-line-blocking one mux session;
//   - active health probing: an echo (mux RTT) check per endpoint on the
//     environment clock, feeding an EWMA latency estimate and a
//     consecutive-failure counter;
//   - pick policy: power-of-two-choices over in-flight streams, weighted
//     by each endpoint's health score;
//   - ejection and re-admission: endpoints past the failure threshold are
//     ejected with exponential backoff and re-admitted only after a
//     successful probe;
//   - takedown-aware rotation: MarkDown ejects an endpoint immediately
//     (wired to registry takedowns / GFW IP-blocks) and Add introduces a
//     replacement at runtime, so a takedown rotates traffic instead of
//     surfacing as user-visible failure.
//
// All blocking uses netx primitives, so a Pool runs unchanged over the
// real network and the virtual-time simulator.
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scholarcloud/internal/mux"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
)

// Endpoint is one remote proxy the pool can tunnel through.
type Endpoint struct {
	// Name identifies the endpoint in stats and takedown hooks
	// (conventionally the remote's "ip:port").
	Name string
	// Dial opens a raw carrier connection to the endpoint.
	Dial func() (net.Conn, error)
	// Transport labels the carrier transport behind Dial (one of the
	// carrier package's canonical names). Empty means the legacy
	// unlabeled blinded path; non-empty transports get per-transport obs
	// counters and participate in the escalation ladder's pick
	// preference.
	Transport string
}

// Escalator is the fleet's view of a transport escalation ladder
// (carrier.Ladder implements it): the pool prefers endpoints on the
// active rung and feeds carrier-level outcomes back so the ladder can
// escalate on sustained failure and recover via probes.
type Escalator interface {
	ActiveName() string
	RecordFailure(transport string)
	RecordSuccess(transport string)
}

// Config tunes the pool. The zero value of every field selects a
// sensible default.
type Config struct {
	Env netx.Env
	// NewSession wraps a freshly dialed raw carrier into a mux session —
	// the hook where the domestic proxy applies message blinding.
	NewSession func(raw net.Conn) *mux.Session
	// SessionsPerRemote is the carrier pool size per endpoint (default 2).
	SessionsPerRemote int
	// ProbeInterval is the health-check cadence (default 5s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one echo probe (default 2s).
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive-failure threshold (default 2).
	EjectAfter int
	// ReadmitBackoff is the first re-admission probe delay after an
	// ejection; it doubles per consecutive ejection (default 10s).
	ReadmitBackoff time.Duration
	// BackoffMax caps the re-admission backoff (default 2min).
	BackoffMax time.Duration
	// EWMAAlpha is the latency-estimate smoothing factor (default 0.3).
	EWMAAlpha float64
	// DialTimeout bounds one carrier dial (including the transport
	// handshake). Zero leaves dials unbounded — the historical behaviour —
	// so only resilience-enabled deployments pay the timer. A dial that
	// outlives the deadline is recorded as an endpoint failure; its late
	// connection, if any, is closed on arrival.
	DialTimeout time.Duration
	// Seed drives the pick policy's randomness deterministically.
	Seed uint64
	// OnStateChange, if set, observes ejections and re-admissions.
	OnStateChange func(name string, healthy bool, reason string)
	// Escalate, if set, is the transport escalation ladder: pick prefers
	// endpoints whose Transport matches the active rung, and every
	// carrier-level success or failure on a labeled endpoint is fed back
	// to it.
	Escalate Escalator
}

func (c Config) withDefaults() Config {
	if c.SessionsPerRemote <= 0 {
		c.SessionsPerRemote = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 5 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.ReadmitBackoff <= 0 {
		c.ReadmitBackoff = 10 * time.Second
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Minute
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.3
	}
	return c
}

// Errors.
var (
	// ErrNoEndpoints reports a pool constructed with no endpoints.
	ErrNoEndpoints = errors.New("fleet: pool has no endpoints")
	// ErrPoolClosed reports use after Close.
	ErrPoolClosed = errors.New("fleet: pool closed")
	// ErrDialTimeout reports a carrier dial that outlived
	// Config.DialTimeout.
	ErrDialTimeout = errors.New("fleet: dial timed out")
)

// DownError reports that every endpoint was tried and none could carry
// the stream — the fleet equivalent of "all remotes down".
type DownError struct {
	Attempts int
	Last     error
}

// Error implements error.
func (e *DownError) Error() string {
	return fmt.Sprintf("fleet: all %d endpoints failed: %v", e.Attempts, e.Last)
}

// Unwrap exposes the last endpoint error.
func (e *DownError) Unwrap() error { return e.Last }

// slot is one carrier session of an endpoint's pool.
type slot struct {
	sess     *mux.Session
	dialing  bool
	inflight obs.Gauge
}

// endpoint is the pool's view of one remote.
type endpoint struct {
	Endpoint
	slots []*slot

	// Health state, guarded by Pool.mu.
	healthy     bool
	consecFails int
	ewmaRTT     time.Duration
	backoff     time.Duration
	lastErr     string

	opened    obs.Counter
	failures  obs.Counter
	probes    obs.Counter
	ejections obs.Counter
}

func (ep *endpoint) inflight() int64 {
	var n int64
	for _, sl := range ep.slots {
		n += sl.inflight.Value()
	}
	return n
}

// liveSlots counts slots with a usable session (caller holds Pool.mu).
func (ep *endpoint) liveSlots() int {
	n := 0
	for _, sl := range ep.slots {
		if sl.sess != nil && sl.sess.Err() == nil {
			n++
		}
	}
	return n
}

// Pool is the fleet control plane.
type Pool struct {
	cfg Config

	mu        sync.Mutex
	cond      netx.Cond
	endpoints []*endpoint
	// rng drives the pick policy. *rand.Rand is not concurrency-safe:
	// every use must hold mu (today that is only pick, which runs with mu
	// held for its whole body).
	rng    *rand.Rand
	closed bool

	picks        obs.Counter
	failovers    obs.Counter
	rotations    obs.Counter
	dialTimeouts obs.Counter

	flowTrace atomic.Pointer[obs.Trace]
}

// Instrument publishes the pool's pick, failover, rotation and
// per-endpoint health counters on reg. Per-endpoint counters are summed
// across the fleet; use Stats for the per-endpoint breakdown.
func (p *Pool) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("fleet.picks", &p.picks)
	reg.RegisterCounter("fleet.failovers", &p.failovers)
	reg.RegisterCounter("fleet.rotations", &p.rotations)
	reg.RegisterCounter("fleet.dial_timeouts", &p.dialTimeouts)
	sum := func(read func(ep *endpoint) int64) func() int64 {
		return func() int64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			var n int64
			for _, ep := range p.endpoints {
				n += read(ep)
			}
			return n
		}
	}
	reg.RegisterFunc("fleet.streams_opened", sum(func(ep *endpoint) int64 { return ep.opened.Value() }))
	reg.RegisterFunc("fleet.failures", sum(func(ep *endpoint) int64 { return ep.failures.Value() }))
	reg.RegisterFunc("fleet.probes", sum(func(ep *endpoint) int64 { return ep.probes.Value() }))
	reg.RegisterFunc("fleet.ejections", sum(func(ep *endpoint) int64 { return ep.ejections.Value() }))
	reg.RegisterFunc("fleet.healthy_endpoints", sum(func(ep *endpoint) int64 {
		if ep.healthy {
			return 1
		}
		return 0
	}))
	// Per-transport breakdowns, only for endpoints labeled with a carrier
	// transport: the default unlabeled fleet registers nothing extra, so
	// its /metrics output is unchanged. Endpoints Added after Instrument
	// with a transport not seen here fold into the fleet-wide sums only.
	p.mu.Lock()
	seen := map[string]bool{}
	var transports []string
	for _, ep := range p.endpoints {
		if ep.Transport != "" && !seen[ep.Transport] {
			seen[ep.Transport] = true
			transports = append(transports, ep.Transport)
		}
	}
	p.mu.Unlock()
	sort.Strings(transports)
	for _, tr := range transports {
		only := func(read func(ep *endpoint) int64) func() int64 {
			return sum(func(ep *endpoint) int64 {
				if ep.Transport != tr {
					return 0
				}
				return read(ep)
			})
		}
		reg.RegisterFunc("fleet.transport."+tr+".streams_opened", only(func(ep *endpoint) int64 { return ep.opened.Value() }))
		reg.RegisterFunc("fleet.transport."+tr+".failures", only(func(ep *endpoint) int64 { return ep.failures.Value() }))
		reg.RegisterFunc("fleet.transport."+tr+".probes", only(func(ep *endpoint) int64 { return ep.probes.Value() }))
		reg.RegisterFunc("fleet.transport."+tr+".healthy_endpoints", only(func(ep *endpoint) int64 {
			if ep.healthy {
				return 1
			}
			return 0
		}))
	}
}

// Config returns the pool's resolved configuration: what New was given,
// with every zero value replaced by its default.
func (p *Pool) Config() Config { return p.cfg }

// SetTrace installs (or, with nil, removes) a flow tracer receiving a
// span for every carrier pick, failover, ejection, re-admission and probe
// outcome.
func (p *Pool) SetTrace(t *obs.Trace) { p.flowTrace.Store(t) }

// New builds a pool over the given endpoints, pre-dials each endpoint's
// carrier sessions in the background, and starts the health probers.
func New(cfg Config, eps []Endpoint) (*Pool, error) {
	if len(eps) == 0 {
		return nil, ErrNoEndpoints
	}
	cfg = cfg.withDefaults()
	if cfg.NewSession == nil {
		return nil, errors.New("fleet: Config.NewSession is required")
	}
	p := &Pool{
		cfg: cfg,
		rng: rand.New(rand.NewSource(int64(cfg.Seed) + 0x5EED)),
	}
	p.cond = cfg.Env.Sync.NewCond(&p.mu)
	for _, e := range eps {
		p.addLocked(e)
	}
	return p, nil
}

// Add introduces a new endpoint at runtime — the rotation half of
// takedown-aware rotation: when a remote is seized or IP-blocked, the
// operator stands up a replacement VM and Adds it without restarting the
// domestic proxy.
func (p *Pool) Add(e Endpoint) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.addLocked(e)
	p.mu.Unlock()
}

func (p *Pool) addLocked(e Endpoint) {
	ep := &endpoint{Endpoint: e, healthy: true}
	for i := 0; i < p.cfg.SessionsPerRemote; i++ {
		ep.slots = append(ep.slots, &slot{})
	}
	p.endpoints = append(p.endpoints, ep)
	p.cfg.Env.Spawn.Go(func() { p.warm(ep) })
	p.cfg.Env.Spawn.Go(func() { p.probeLoop(ep) })
}

// Close tears down every carrier session and stops the probers.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	sessions := p.collectSessionsLocked(nil)
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

// Recycle tears down every carrier session without touching health
// state, so the next streams (and the warm-up the probers trigger)
// re-dial fresh carriers. The domestic proxy calls this on a blinding
// epoch rotation: old-epoch carriers cannot outlive their scheme.
func (p *Pool) Recycle() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	sessions := p.collectSessionsLocked(nil)
	p.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

// collectSessionsLocked gathers (and detaches) live sessions, of one
// endpoint or, with ep == nil, of the whole pool.
func (p *Pool) collectSessionsLocked(ep *endpoint) []*mux.Session {
	var out []*mux.Session
	eps := p.endpoints
	if ep != nil {
		eps = []*endpoint{ep}
	}
	for _, e := range eps {
		for _, sl := range e.slots {
			if sl.sess != nil {
				out = append(out, sl.sess)
				sl.sess = nil
			}
		}
	}
	return out
}

// Open establishes a stream with the given metadata through the best
// available endpoint, failing over across endpoints transparently. The
// caller sees an error only when the stream itself is refused by a live
// remote (mux.ErrOpenRejected — e.g. the origin was unreachable) or when
// every endpoint is down.
func (p *Pool) Open(meta []byte) (net.Conn, error) {
	return p.open("", meta)
}

// OpenOn is Open restricted to endpoints labeled with the given carrier
// transport — the hook a transport-aware hedge uses to aim its backup
// request at a different escalation rung than the primary.
func (p *Pool) OpenOn(transport string, meta []byte) (net.Conn, error) {
	return p.open(transport, meta)
}

func (p *Pool) open(transport string, meta []byte) (net.Conn, error) {
	p.picks.Inc()
	var lastErr error
	tried := make(map[*endpoint]bool)
	for attempt := 0; ; attempt++ {
		ep := p.pick(tried, transport)
		if ep == nil {
			break
		}
		tried[ep] = true
		if attempt > 0 {
			p.failovers.Inc()
			p.flowTrace.Load().Addf("fleet", "failover", "attempt %d -> %s", attempt+1, ep.Name)
		} else {
			p.flowTrace.Load().Addf("fleet", "pick", "%s for %q", ep.Name, meta)
		}
		st, err := p.openOn(ep, meta)
		if err == nil {
			return st, nil
		}
		if errors.Is(err, mux.ErrOpenRejected) {
			// The endpoint is alive and answered: the refusal is about
			// this stream (bad target, origin down), not carrier health.
			return nil, err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrPoolClosed
		if transport != "" && len(tried) == 0 {
			lastErr = fmt.Errorf("fleet: no endpoints for transport %q", transport)
		}
	}
	return nil, &DownError{Attempts: len(tried), Last: lastErr}
}

// pick chooses the next endpoint to try: power-of-two-choices among
// healthy, untried endpoints, scored by in-flight load weighted with the
// EWMA latency and warm-carrier availability. When no healthy endpoint
// remains it falls back to ejected ones — a last resort that beats
// refusing outright. A non-empty transport restricts candidates to that
// carrier transport; otherwise, with an escalation ladder configured,
// healthy endpoints on the active rung are preferred over the rest.
func (p *Pool) pick(tried map[*endpoint]bool, transport string) *endpoint {
	preferred := transport
	if preferred == "" && p.cfg.Escalate != nil {
		preferred = p.cfg.Escalate.ActiveName()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	var active, healthy, rest []*endpoint
	for _, ep := range p.endpoints {
		if tried[ep] {
			continue
		}
		if transport != "" && ep.Transport != transport {
			continue
		}
		switch {
		case ep.healthy && preferred != "" && ep.Transport == preferred:
			active = append(active, ep)
		case ep.healthy:
			healthy = append(healthy, ep)
		default:
			rest = append(rest, ep)
		}
	}
	cands := active
	if len(cands) == 0 {
		cands = healthy
	}
	if len(cands) == 0 {
		cands = rest
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	i := p.rng.Intn(len(cands))
	j := p.rng.Intn(len(cands) - 1)
	if j >= i {
		j++
	}
	a, b := cands[i], cands[j]
	if p.scoreLocked(b) < p.scoreLocked(a) {
		return b
	}
	return a
}

// scoreLocked is the pick policy's cost estimate: lower is better.
func (p *Pool) scoreLocked(ep *endpoint) float64 {
	score := float64(ep.inflight()+1) * (1 + ep.ewmaRTT.Seconds())
	if ep.liveSlots() == 0 {
		// A cold endpoint needs a carrier dial before it can serve;
		// prefer warm ones without forbidding cold ones.
		score *= 4
	}
	return score * float64(1+ep.consecFails)
}

// openOn opens one stream on ep, dialing a carrier if necessary.
func (p *Pool) openOn(ep *endpoint, meta []byte) (net.Conn, error) {
	sl, sess, err := p.sessionFor(ep)
	if err != nil {
		return nil, err
	}
	st, err := sess.Open(meta)
	if err != nil {
		if !errors.Is(err, mux.ErrOpenRejected) {
			p.recordFailure(ep, err)
		}
		return nil, err
	}
	ep.opened.Inc()
	sl.inflight.Inc()
	p.recordSuccess(ep, 0, true)
	return &trackedStream{Stream: st, slot: sl}, nil
}

// sessionFor returns a usable carrier session on ep: the least-loaded
// live slot when one exists, else it dials a fresh carrier into a free
// slot. Concurrent callers needing a dial coordinate through the pool's
// cond so one dial serves all waiters.
func (p *Pool) sessionFor(ep *endpoint) (*slot, *mux.Session, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, nil, ErrPoolClosed
		}
		// Least-loaded live slot wins: streams spread across carriers.
		var best *slot
		for _, sl := range ep.slots {
			if sl.sess == nil || sl.sess.Err() != nil {
				continue
			}
			if best == nil || sl.inflight.Value() < best.inflight.Value() {
				best = sl
			}
		}
		if best != nil {
			sess := best.sess
			p.mu.Unlock()
			return best, sess, nil
		}
		var free *slot
		dialing := false
		for _, sl := range ep.slots {
			if sl.dialing {
				dialing = true
				continue
			}
			if free == nil {
				free = sl
			}
		}
		if free != nil {
			free.dialing = true
			p.mu.Unlock()
			return p.dialSlot(ep, free)
		}
		if !dialing {
			// Unreachable (every slot is either live, free, or dialing),
			// but never spin.
			p.mu.Unlock()
			return nil, nil, fmt.Errorf("fleet: endpoint %s has no usable slot", ep.Name)
		}
		p.cond.Wait()
	}
}

// dialSlot dials a carrier into sl (which the caller marked dialing).
func (p *Pool) dialSlot(ep *endpoint, sl *slot) (*slot, *mux.Session, error) {
	start := p.cfg.Env.Clock.Now()
	// Bounded by Config.DialTimeout when one is set: a stalled dial can
	// never leak a carrier into the pool (netx.DialBounded closes it late).
	raw, err := netx.DialBounded(p.cfg.Env, p.cfg.DialTimeout, ep.Dial)
	if err == netx.ErrDialTimeout {
		p.dialTimeouts.Inc()
		err = ErrDialTimeout
	}
	var sess *mux.Session
	if err == nil {
		sess = p.cfg.NewSession(raw)
	}
	p.mu.Lock()
	sl.dialing = false
	if err != nil {
		p.cond.Broadcast()
		p.mu.Unlock()
		p.recordFailure(ep, err)
		return nil, nil, fmt.Errorf("fleet: dial %s: %w", ep.Name, err)
	}
	if p.closed {
		p.cond.Broadcast()
		p.mu.Unlock()
		sess.Close()
		return nil, nil, ErrPoolClosed
	}
	old := sl.sess
	sl.sess = sess
	p.cond.Broadcast()
	p.mu.Unlock()
	if old != nil {
		old.Close() // dead carrier being replaced
	}
	p.recordSuccess(ep, p.cfg.Env.Clock.Now().Sub(start), false)
	return sl, sess, nil
}

// warm pre-dials every carrier slot of ep (the "pre-dialed blinded
// carrier sessions" the pool keeps ready).
func (p *Pool) warm(ep *endpoint) {
	for _, sl := range ep.slots {
		p.mu.Lock()
		if p.closed || sl.dialing || (sl.sess != nil && sl.sess.Err() == nil) {
			p.mu.Unlock()
			continue
		}
		sl.dialing = true
		p.mu.Unlock()
		p.dialSlot(ep, sl)
	}
}

// trackedStream decorates a mux stream with in-flight accounting.
type trackedStream struct {
	*mux.Stream
	slot *slot
	once sync.Once
}

// Close implements net.Conn.
func (t *trackedStream) Close() error {
	t.once.Do(func() { t.slot.inflight.Dec() })
	return t.Stream.Close()
}
