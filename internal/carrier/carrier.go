// Package carrier abstracts the domestic↔remote hop behind a pluggable
// transport interface. The paper's deployment survives because that hop
// looks innocuous; this package makes the disguise swappable so a censor
// that fingerprints one carrier does not win outright.
//
// Three transports implement the interface:
//
//   - Blinded (carrier.Blinded): the legacy path — a direct TCP
//     connection to the remote proxy carrying blinded mux frames. Fastest,
//     but its uniform high-entropy byte stream is fingerprintable.
//   - Rendezvous (carrier.Rendezvous): CensorLess-style serverless
//     rendezvous — each dial invokes an ephemeral endpoint drawn from a
//     large address pool and speaks ordinary TLS with an innocuous SNI, so
//     IP-blocklisting any one endpoint is useless. Costs a cold start per
//     invocation and a per-invocation fee (opscost).
//   - DNS tunnel (carrier.DNSTunnel): mux frames chunked into DNS
//     query/response records through a pool of recursive resolvers.
//     Slowest by far, but the censor sees only well-formed queries for a
//     name nobody blacklists.
//
// Every transport yields a raw net.Conn from Dial and the same blinded
// mux session from Wrap, so core.Domestic and fleet treat rungs
// uniformly. The escalation policy across transports lives in Ladder.
package carrier

import (
	"fmt"
	"net"
	"time"

	"scholarcloud/internal/mux"
	"scholarcloud/internal/netx"
)

// Canonical transport names, used as obs labels and CLI tokens.
const (
	Blinded    = "blinded"
	Rendezvous = "rendezvous"
	DNSTunnel  = "dns-tunnel"
)

// Known lists the carrier transport names in default ladder order:
// fastest and most blockable first, the covert channel of last resort
// last.
func Known() []string { return []string{Blinded, Rendezvous, DNSTunnel} }

// WrapFunc layers the blinded mux session onto a raw carrier connection.
// core.Domestic.WrapCarrier is the production implementation.
type WrapFunc func(net.Conn) *mux.Session

// Transport is one rung of the escalation ladder: a way to reach the
// remote proxy. Dial produces the raw carrier connection; Wrap layers the
// session protocol on top; Name identifies the rung in obs labels,
// endpoint metadata, and CLI flags.
type Transport interface {
	Name() string
	Dial() (net.Conn, error)
	Wrap(raw net.Conn) *mux.Session
}

// static is a Transport from plain functions; the blinded legacy carrier
// is one of these.
type static struct {
	name string
	dial func() (net.Conn, error)
	wrap WrapFunc
}

// NewBlinded adapts the legacy blinded-TLS path — any dial function plus
// the blinding wrap — to the Transport interface.
func NewBlinded(dial func() (net.Conn, error), wrap WrapFunc) Transport {
	return &static{name: Blinded, dial: dial, wrap: wrap}
}

// NewStatic builds a named Transport from plain functions (tests and
// deployments with out-of-tree carriers).
func NewStatic(name string, dial func() (net.Conn, error), wrap WrapFunc) Transport {
	return &static{name: name, dial: dial, wrap: wrap}
}

func (t *static) Name() string                   { return t.name }
func (t *static) Dial() (net.Conn, error)        { return t.dial() }
func (t *static) Wrap(raw net.Conn) *mux.Session { return t.wrap(raw) }

// DialError is a timeout-flavored net.Error so resilience layers treat a
// bounded dial that expired like any other I/O timeout.
type DialError struct{ Transport string }

func (e *DialError) Error() string   { return fmt.Sprintf("carrier: %s dial timed out", e.Transport) }
func (e *DialError) Timeout() bool   { return true }
func (e *DialError) Temporary() bool { return true }

// DialBounded is netx.DialBounded reporting an expired bound as a
// transport-labelled *DialError.
func DialBounded(env netx.Env, name string, timeout time.Duration, dial func() (net.Conn, error)) (net.Conn, error) {
	conn, err := netx.DialBounded(env, timeout, dial)
	if err == netx.ErrDialTimeout {
		return nil, &DialError{Transport: name}
	}
	return conn, err
}
