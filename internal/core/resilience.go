package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scholarcloud/internal/httpsim"
)

// Resilience tunes the domestic proxy's client-path fault tolerance:
// per-dial and per-request deadlines, exponentially backed-off retries
// with deterministic jitter, and hedged retry that re-issues a stalled
// in-flight fetch on a second carrier so one page load can survive a
// mid-flight remote takedown. A nil *Resilience on Domestic disables the
// whole layer — behaviour (and every deterministic figure) is then
// byte-identical to the pre-resilience proxy. The zero value of each
// field selects a default.
type Resilience struct {
	// DialTimeout bounds one carrier dial to the remote (default 3s).
	DialTimeout time.Duration
	// RequestTimeout bounds one upstream fetch end to end, across all of
	// its attempts (default 45s — loose enough that a fetch crawling
	// through a long loss burst finishes instead of being cut off).
	RequestTimeout time.Duration
	// HedgeAfter is how long the first attempt may stall before the fetch
	// is re-issued concurrently on a second carrier of the pool; first
	// answer wins (default 2s).
	HedgeAfter time.Duration
	// Retries is how many times a failed fetch is re-issued (default 4 —
	// the summed backoff then spans a fleet ejection window, so retries
	// against a freshly dead remote live to see it rotated out).
	Retries int
	// BackoffBase is the first retry delay; it doubles per retry (default
	// 500ms).
	BackoffBase time.Duration
	// BackoffMax caps the retry delay (default 8s).
	BackoffMax time.Duration
	// Seed derives the deterministic backoff jitter stream.
	Seed uint64
}

func (r Resilience) withDefaults() Resilience {
	if r.DialTimeout <= 0 {
		r.DialTimeout = 3 * time.Second
	}
	if r.RequestTimeout <= 0 {
		r.RequestTimeout = 45 * time.Second
	}
	if r.HedgeAfter <= 0 {
		r.HedgeAfter = 2 * time.Second
	}
	if r.Retries <= 0 {
		r.Retries = 4
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 500 * time.Millisecond
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = 8 * time.Second
	}
	return r
}

// errRequestTimeout reports a fetch that exhausted its end-to-end
// deadline with no attempt outcome to blame.
var errRequestTimeout = errors.New("core: request deadline exceeded")

// isTimeout reports whether err is a deadline-style failure.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// backoff returns the k-th retry delay: exponential from BackoffBase,
// capped at BackoffMax, with deterministic full jitter in [d/2, d) drawn
// from the proxy's splitmix stream. Equal seeds and equal call orders
// reproduce equal delays, so resilience never costs determinism.
func (d *Domestic) backoff(r Resilience, k int) time.Duration {
	b := r.BackoffBase << uint(k)
	if b <= 0 || b > r.BackoffMax {
		b = r.BackoffMax
	}
	n := d.jitterCtr.Add(1)
	x := (r.Seed ^ 0xBACC0FF) + n*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / float64(1<<53)
	return b/2 + time.Duration(frac*float64(b/2))
}

// fetchResilient is fetchOrigin under the resilience policy: the fetch is
// issued with a read deadline; if it stalls past HedgeAfter a hedge
// attempt races it on a second carrier (first answer wins); failed waves
// are re-issued with exponentially backed-off, deterministically jittered
// delays until the end-to-end RequestTimeout expires or Retries is
// exhausted. Graceful degradation is visible through the hedges, retries,
// deadline-hit and failover counters.
func (d *Domestic) fetchResilient(u *httpsim.URL, req *httpsim.Request, header map[string]string) (*httpsim.Response, error) {
	r := d.Resil.withDefaults()
	clock := d.Env.Clock
	deadline := clock.Now().Add(r.RequestTimeout)

	var mu sync.Mutex
	cond := d.Env.Sync.NewCond(&mu)
	var (
		winner   *httpsim.Response
		wonBy    = -1
		lastErr  error
		inflight int
		launched int
		hedged   bool
	)

	launch := func(via string) {
		mu.Lock()
		idx := launched
		launched++
		inflight++
		mu.Unlock()
		d.Env.Spawn.Go(func() {
			resp, err := d.fetchOriginOnce(u, req, header, deadline, via)
			mu.Lock()
			inflight--
			if err != nil {
				lastErr = err
				if isTimeout(err) {
					d.deadlineHits.Inc()
				}
			} else if winner == nil {
				winner = resp
				wonBy = idx
			}
			cond.Broadcast()
			mu.Unlock()
		})
	}
	launch("")

	hedgeTimer := clock.AfterFunc(r.HedgeAfter, func() {
		mu.Lock()
		fire := winner == nil && inflight > 0 && !hedged
		if fire {
			hedged = true
		}
		mu.Unlock()
		if fire {
			d.hedges.Inc()
			// With an escalation ladder wired in, a stalled attempt
			// smells like the active transport being throttled or
			// blocked: aim the hedge at the next rung so the race is
			// between transports, not between two carriers of the same
			// one.
			via := ""
			if d.NextTransport != nil {
				via = d.NextTransport()
			}
			if via != "" {
				d.flowTrace.Load().Addf("core", "hedge", "%s re-issued via %s", u.HostPort(), via)
			} else {
				d.flowTrace.Load().Addf("core", "hedge", "%s re-issued on second carrier", u.HostPort())
			}
			launch(via)
		}
	})
	defer hedgeTimer.Stop()
	// Wake the waiter when the end-to-end deadline lands even if every
	// attempt is still stalled.
	wake := clock.AfterFunc(r.RequestTimeout, func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	defer wake.Stop()

	retries := 0
	mu.Lock()
	for {
		if winner != nil {
			resp, idx := winner, wonBy
			mu.Unlock()
			if idx > 0 {
				d.failovers.Inc()
				d.flowTrace.Load().Addf("core", "failover", "%s completed by attempt %d", u.HostPort(), idx)
			}
			return resp, nil
		}
		if !clock.Now().Before(deadline) {
			err := lastErr
			mu.Unlock()
			d.deadlineHits.Inc()
			if err == nil {
				err = errRequestTimeout
			}
			return nil, fmt.Errorf("core: request deadline (%v) exceeded: %w", r.RequestTimeout, err)
		}
		if inflight == 0 {
			if retries >= r.Retries {
				err := lastErr
				mu.Unlock()
				return nil, err
			}
			k := retries
			retries++
			mu.Unlock()
			d.retries.Inc()
			clock.Sleep(d.backoff(r, k))
			launch("")
			mu.Lock()
			continue
		}
		cond.Wait()
	}
}
