package core

import (
	"errors"
	"time"

	"scholarcloud/internal/carrier"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/obs"
)

// Laddered-border tuning: what a border hop climbing a carrier ladder
// needs instead of the single-transport defaults, applied by
// AssembleBorder wherever the caller left the value zero. The simulator's
// ladder and censor worlds are measured with these numbers and a deployed
// Transports ladder runs the same ones, so — together with the censor
// package's Survival* constants — the simulated survival rates transfer.
const (
	// LadderProbeInterval/Timeout slow the pool's health cadence: an RTT
	// echo over the DNS tunnel takes several hundred milliseconds even
	// when healthy, so the single-remote cadence would misread load as
	// death.
	LadderProbeInterval = 5 * time.Second
	LadderProbeTimeout  = 3 * time.Second
	// LadderDialTimeout bounds one carrier dial across the slowest rung:
	// a rendezvous dial retries several cold starts, a tunnel dial
	// retransmits its SYN exchange.
	LadderDialTimeout = 12 * time.Second
	// LadderHedgeAfter/RequestTimeout relax the resilience policy: the
	// DNS-tunnel rung is legitimately slow (a page load takes seconds),
	// and the default 2 s hedge trigger would read that as a stall and
	// permanently double its load.
	LadderHedgeAfter     = 8 * time.Second
	LadderRequestTimeout = 90 * time.Second
)

// Border describes the one hop that matters — domestic proxy → blinded
// tunnel → remote proxy — as either plain remote endpoints or an
// escalation ladder of carrier rungs.
type Border struct {
	// Remotes are the remote proxies of a single-transport border.
	Remotes []fleet.Endpoint
	// Rungs, when non-empty, replace Remotes with an escalation ladder
	// (fastest, most blockable rung first). Build them over the proxy's
	// WrapCarrier.
	Rungs []carrier.Transport
	// Ladder overrides the ladder's escalation policy (the censor
	// package's survival tuning, an OnSwitch observer). Env is filled in.
	Ladder carrier.LadderConfig
	// Pool carries what differs per caller: Seed, SessionsPerRemote, a
	// calibrated probe/readmit cadence, and an explicit DialTimeout that
	// overrides the bound of a bounded border. Env, NewSession and
	// Escalate are filled in.
	Pool fleet.Config
}

// AssembleBorder is the only constructor of remote pools and carrier
// ladders: it builds b's ladder, labels one endpoint per rung, constructs
// the pool over the proxy's blinded sessions, hands it to d (Fleet,
// NextTransport), publishes both on reg (nil registers nothing — borders
// sharing a registry would sum each other's names) and starts the
// ladder's recovery prober. A laddered border gets the Ladder* tuning
// wherever Pool or d.Resil left a value zero. Carrier dials are bounded
// iff the proxy is resilient or the border laddered — a censor-blackholed
// transport would otherwise hang the pool's warmer for the full TCP retry
// schedule — and unbounded otherwise, the paper deployment's fail-fast
// behaviour. The ladder is nil for a plain border; the caller closes the
// ladder, then the pool.
func (d *Domestic) AssembleBorder(b Border, reg *obs.Registry) (*fleet.Pool, *carrier.Ladder, error) {
	if len(b.Remotes) > 0 && len(b.Rungs) > 0 {
		return nil, nil, errors.New("core: a border is either plain remotes or ladder rungs, not both")
	}
	fcfg := b.Pool
	fcfg.Env = d.Env
	fcfg.NewSession = d.WrapCarrier
	eps := b.Remotes
	var ladder *carrier.Ladder
	if len(b.Rungs) > 0 {
		lcfg := b.Ladder
		lcfg.Env = d.Env
		ladder = carrier.NewLadder(lcfg, b.Rungs...)
		fcfg.Escalate = ladder
		// One transport-labeled endpoint per rung: the pool pre-dials and
		// health-probes every transport, pick() prefers the active rung,
		// and dial/open failures feed the ladder's escalation counter.
		for _, tr := range b.Rungs {
			eps = append(eps, fleet.Endpoint{Name: tr.Name(), Transport: tr.Name(), Dial: tr.Dial})
		}
		orDuration(&fcfg.ProbeInterval, LadderProbeInterval)
		orDuration(&fcfg.ProbeTimeout, LadderProbeTimeout)
		orDuration(&fcfg.DialTimeout, LadderDialTimeout)
		if d.Resil != nil {
			orDuration(&d.Resil.HedgeAfter, LadderHedgeAfter)
			orDuration(&d.Resil.RequestTimeout, LadderRequestTimeout)
		}
	}
	switch {
	case d.Resil == nil && ladder == nil:
		fcfg.DialTimeout = 0
	case fcfg.DialTimeout <= 0: // plain and resilient: a ladder filled it above
		fcfg.DialTimeout = d.Resil.withDefaults().DialTimeout
	}
	pool, err := fleet.New(fcfg, eps)
	if err != nil {
		return nil, nil, err
	}
	d.Fleet = pool
	if ladder != nil {
		d.NextTransport = ladder.NextName
	}
	if reg != nil {
		if ladder != nil {
			ladder.Instrument(reg)
		}
		pool.Instrument(reg)
	}
	if ladder != nil {
		ladder.Start()
	}
	return pool, ladder, nil
}

// orDuration sets *v to def when the caller left it zero.
func orDuration(v *time.Duration, def time.Duration) {
	if *v <= 0 {
		*v = def
	}
}
