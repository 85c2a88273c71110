// The serverless rendezvous carrier, modeled on CensorLess: every dial
// invokes an ephemeral endpoint drawn from a large cloud address pool
// and speaks ordinary TLS with an innocuous SNI. The censor faces an
// unwinnable trade: the endpoints change per invocation, so
// IP-blocklisting any one of them is useless, and the traffic is
// indistinguishable from the cloud provider's own. The price is a cold
// start per invocation and a metered per-invocation fee, which the
// opscost hook accounts for.
package carrier

import (
	"errors"
	"net"
	"sync"
	"time"

	"scholarcloud/internal/mux"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/tlssim"
)

// Rendezvous defaults.
const (
	// DefaultColdStart is the per-invocation spin-up latency of an
	// ephemeral endpoint.
	DefaultColdStart = 350 * time.Millisecond
	// DefaultAttemptTimeout bounds one endpoint attempt (dial +
	// handshake), so a blackholed endpoint costs bounded time.
	DefaultAttemptTimeout = 1500 * time.Millisecond
	// DefaultAttempts is how many distinct endpoints one Dial tries
	// before giving up; a partially-blocked pool is survived internally
	// instead of tripping the ladder.
	DefaultAttempts = 3
)

// ErrRendezvousExhausted reports a Dial that failed on every attempted
// endpoint.
var ErrRendezvousExhausted = errors.New("carrier: rendezvous pool exhausted")

// RendezvousConfig configures the rendezvous transport.
type RendezvousConfig struct {
	Env netx.Env
	// Endpoints is the ephemeral address pool ("ip:port"). Real
	// deployments would refresh it from the provider; the model treats
	// it as large enough that per-invocation rotation defeats
	// blocklisting.
	Endpoints []string
	// Dial opens a TCP connection to one endpoint address.
	Dial func(address string) (net.Conn, error)
	// SNI is the innocuous server name sent in the clear — the cloud
	// front the censor would have to block wholesale.
	SNI string
	// Verify authenticates the endpoint's certificate (nil skips).
	Verify func(cert []byte, serverName string) error
	// Wrap layers the blinded mux session onto rendezvous connections.
	Wrap WrapFunc
	// Seed drives the deterministic endpoint rotation.
	Seed uint64
	// OnInvoke, if set, is called once per endpoint invocation — the
	// opscost metering hook.
	OnInvoke func()
	// ColdStart, AttemptTimeout, and Attempts default to the
	// Default* constants when zero.
	ColdStart      time.Duration
	AttemptTimeout time.Duration
	Attempts       int
}

// RendezvousPool is the rendezvous Transport.
type RendezvousPool struct {
	cfg RendezvousConfig

	mu    sync.Mutex
	draws uint64

	invocations obs.Counter
	failures    obs.Counter
}

// NewRendezvous builds the transport. It panics on an empty pool.
func NewRendezvous(cfg RendezvousConfig) *RendezvousPool {
	if len(cfg.Endpoints) == 0 {
		panic("carrier: rendezvous needs a non-empty endpoint pool")
	}
	if cfg.ColdStart <= 0 {
		cfg.ColdStart = DefaultColdStart
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = DefaultAttempts
	}
	return &RendezvousPool{cfg: cfg}
}

// Name implements Transport.
func (p *RendezvousPool) Name() string { return Rendezvous }

// Wrap implements Transport.
func (p *RendezvousPool) Wrap(raw net.Conn) *mux.Session { return p.cfg.Wrap(raw) }

// Invocations reports how many endpoint invocations (cold starts) have
// been paid for — the quantity the opscost model meters.
func (p *RendezvousPool) Invocations() int64 { return p.invocations.Value() }

// Instrument registers the pool's counters.
func (p *RendezvousPool) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("carrier.rendezvous.invocations", &p.invocations)
	reg.RegisterCounter("carrier.rendezvous.failures", &p.failures)
}

// Dial implements Transport: invoke an ephemeral endpoint (cold start,
// bounded dial, TLS handshake), rotating to fresh addresses on failure.
func (p *RendezvousPool) Dial() (net.Conn, error) {
	p.mu.Lock()
	p.draws++
	base := splitmix(p.cfg.Seed^0x5E4DE2, p.draws)
	p.mu.Unlock()

	env := p.cfg.Env
	var lastErr error = ErrRendezvousExhausted
	for attempt := 0; attempt < p.cfg.Attempts; attempt++ {
		addr := p.cfg.Endpoints[int((base+uint64(attempt))%uint64(len(p.cfg.Endpoints)))]
		p.invocations.Inc()
		if p.cfg.OnInvoke != nil {
			p.cfg.OnInvoke()
		}
		// The provider spins the endpoint up from nothing.
		env.Clock.Sleep(p.cfg.ColdStart)
		raw, err := DialBounded(env, Rendezvous, p.cfg.AttemptTimeout, func() (net.Conn, error) {
			return p.cfg.Dial(addr)
		})
		if err != nil {
			p.failures.Inc()
			lastErr = err
			continue
		}
		tc := tlssim.Client(raw, tlssim.Config{
			ServerName: p.cfg.SNI,
			VerifyPeer: p.cfg.Verify,
			Rand:       env.Entropy(),
		})
		// Bound the handshake too: a censor that silently drops the
		// flow after classification must not hang the dial.
		raw.SetDeadline(env.Clock.Now().Add(p.cfg.AttemptTimeout))
		err = tc.Handshake()
		raw.SetDeadline(time.Time{})
		if err != nil {
			p.failures.Inc()
			raw.Close()
			lastErr = err
			continue
		}
		return tc, nil
	}
	return nil, lastErr
}

// ServeGateway accepts rendezvous connections on ln (typically a tlssim
// listener) and pipes each to a fresh backend connection — the whole
// body of a rendezvous endpoint function. Run it on a managed goroutine;
// it returns when ln closes.
func ServeGateway(env netx.Env, ln net.Listener, backend func() (net.Conn, error)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		env.Spawn.Go(func() {
			up, err := backend()
			if err != nil {
				conn.Close()
				return
			}
			env.Spawn.Go(func() {
				pipeCopy(up, conn)
			})
			pipeCopy(conn, up)
		})
	}
}

func pipeCopy(dst, src net.Conn) {
	buf := make([]byte, 16*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}
