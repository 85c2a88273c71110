// Package netx defines the transport and time abstractions that all
// protocol code in this repository is written against. The same tunnel
// implementations (VPN, OpenVPN, Tor, Shadowsocks, ScholarCloud) run both
// over the deterministic simulated internet (internal/netsim) for the
// paper's experiments and over real sockets for the deployable proxies in
// cmd/.
package netx

import (
	cryptorand "crypto/rand"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Clock abstracts time so simulated components run on virtual time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks the caller for d.
	Sleep(d time.Duration)
	// AfterFunc runs fn after d on its own goroutine and returns a handle
	// that can cancel it.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the callback and reports whether it was still pending.
	Stop() bool
}

// Dialer opens client connections.
type Dialer interface {
	// Dial connects to address (host:port). network is "tcp" or "udp".
	Dial(network, address string) (net.Conn, error)
}

// Network is a bidirectional transport endpoint: it can both dial out and
// accept inbound connections.
type Network interface {
	Dialer
	// Listen announces on the local address (":port" or "host:port").
	Listen(network, address string) (net.Listener, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(network, address string) (net.Conn, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(network, address string) (net.Conn, error) {
	return f(network, address)
}

// RealClock is a Clock backed by the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool { return t.t.Stop() }

// RealNetwork is a Network backed by the operating system's sockets.
type RealNetwork struct{}

// Dial implements Network.
func (RealNetwork) Dial(network, address string) (net.Conn, error) {
	return net.Dial(network, address)
}

// Listen implements Network.
func (RealNetwork) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

// Spawner abstracts goroutine creation so simulated components run under a
// virtual-time scheduler (which must know about every runnable goroutine)
// while real deployments just use the go statement.
type Spawner interface {
	// Go runs fn concurrently.
	Go(fn func())
}

// GoSpawner spawns plain goroutines.
type GoSpawner struct{}

// Go implements Spawner.
func (GoSpawner) Go(fn func()) { go fn() }

// Cond is a condition variable abstraction. Simulated components must use
// it instead of sync.Cond so the virtual-time scheduler can account for
// parked goroutines.
type Cond interface {
	// Wait atomically unlocks the associated locker, parks the caller,
	// and re-locks before returning.
	Wait()
	// Signal wakes one waiter. The caller must hold the locker.
	Signal()
	// Broadcast wakes all waiters. The caller must hold the locker.
	Broadcast()
}

// Sync creates synchronization primitives appropriate for the execution
// environment (real or simulated).
type Sync interface {
	// NewCond returns a condition variable bound to l.
	NewCond(l sync.Locker) Cond
}

// RealSync creates ordinary sync.Cond-backed primitives.
type RealSync struct{}

// NewCond implements Sync.
func (RealSync) NewCond(l sync.Locker) Cond { return sync.NewCond(l) }

// Env bundles the execution-environment dependencies protocol code needs:
// time, goroutines, synchronization, and entropy. Everything in
// internal/vpn, internal/openvpn, internal/tor, internal/shadowsocks, and
// internal/core runs identically over a real environment and the
// simulator.
type Env struct {
	Clock Clock
	Spawn Spawner
	Sync  Sync
	// Rand is the environment's entropy source for protocol nonces, IVs,
	// and handshake keys. The real environment uses crypto/rand; the
	// simulator substitutes a seeded stream so wire bytes — and therefore
	// everything the censor's entropy heuristics decide from them — are a
	// deterministic function of the world's seed. Nil falls back to
	// crypto/rand (see Entropy).
	Rand io.Reader
}

// Entropy returns Env.Rand, or crypto/rand when unset, so protocol code
// can draw randomness without nil checks.
func (e Env) Entropy() io.Reader {
	if e.Rand != nil {
		return e.Rand
	}
	return cryptorand.Reader
}

// RealEnv returns the environment backed by the operating system.
func RealEnv() Env {
	return Env{Clock: RealClock{}, Spawn: GoSpawner{}, Sync: RealSync{}, Rand: cryptorand.Reader}
}

// WaitGroup is a scheduler-aware counterpart of sync.WaitGroup. Managed
// goroutines must use it (via Env.NewWaitGroup) instead of sync.WaitGroup
// or channel joins, which would freeze a virtual-time scheduler.
type WaitGroup struct {
	mu   sync.Mutex
	cond Cond
	n    int
}

// NewWaitGroup creates a WaitGroup using this environment's primitives.
func (e Env) NewWaitGroup() *WaitGroup {
	wg := &WaitGroup{}
	wg.cond = e.Sync.NewCond(&wg.mu)
	return wg
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	wg.n += delta
	if wg.n <= 0 {
		wg.cond.Broadcast()
	}
	wg.mu.Unlock()
}

// Done decrements the counter.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	for wg.n > 0 {
		wg.cond.Wait()
	}
	wg.mu.Unlock()
}

// ErrDialTimeout is what DialBounded returns, bare, when the bound
// expires; callers map it to their own sentinel or counter.
var ErrDialTimeout = errors.New("netx: dial timed out")

// DialBounded runs dial but gives up after timeout. On timeout the
// dialing goroutine is disowned: if its connection lands later it is
// closed on arrival, so a stalled dial can never leak a connection to a
// caller that stopped waiting. A non-positive timeout dials unboundedly.
// All blocking uses env primitives so the bound works under the
// virtual-time scheduler.
func DialBounded(env Env, timeout time.Duration, dial func() (net.Conn, error)) (net.Conn, error) {
	if timeout <= 0 {
		return dial()
	}
	var (
		mu       sync.Mutex
		done     bool
		timedOut bool
		conn     net.Conn
		err      error
	)
	cond := env.Sync.NewCond(&mu)
	env.Spawn.Go(func() {
		c, e := dial()
		mu.Lock()
		if timedOut {
			mu.Unlock()
			// Guard on e, not c: a failed Dial may return a typed-nil
			// conn inside a non-nil interface.
			if e == nil && c != nil {
				c.Close()
			}
			return
		}
		conn, err, done = c, e, true
		cond.Broadcast()
		mu.Unlock()
	})
	timer := env.Clock.AfterFunc(timeout, func() {
		mu.Lock()
		if !done {
			timedOut = true
			cond.Broadcast()
		}
		mu.Unlock()
	})
	defer timer.Stop()
	mu.Lock()
	defer mu.Unlock()
	for !done && !timedOut {
		cond.Wait()
	}
	if timedOut {
		return nil, ErrDialTimeout
	}
	return conn, err
}
