// Package core implements ScholarCloud, the paper's contribution (§3): a
// split-proxy system that gives non-technical users access to legal
// services incidentally blocked by the GFW.
//
// Architecture (paper Fig. 2e):
//
//	browser --PAC--> domestic proxy --blinded tunnel--> remote proxy --> origin
//
// The browser's only configuration is a PAC URL served by the domestic
// proxy; the PAC diverts just the visible whitelist of legal domains. The
// domestic proxy (inside the censored network) maintains persistent
// multiplexed tunnels to the remote proxy (outside); each tunnel's
// carrier is message-blinded, so the GFW's DPI sees no known protocol,
// and the remote proxy drops unauthenticated peers instantly, so active
// probes never confirm anything.
//
// There is one way across the border: AssembleBorder gives the domestic
// proxy a fleet.Pool (Domestic.Fleet) and every tunnel stream is opened
// on it. The paper's single remote is a one-member pool, a standby a
// second member, a carrier ladder one member per rung; a proxy without
// an assembled border cannot open a stream.
//
// Per the paper's "data security and privacy" design, already-encrypted
// (HTTPS) browser traffic is carried with blinding only — it is not
// re-encrypted — while cleartext HTTP streams get a per-stream encrypted
// channel between the proxies.
package core

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scholarcloud/internal/blinding"
	"scholarcloud/internal/mux"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/pki"
	"scholarcloud/internal/tlssim"
)

// Stream metadata prefixes on the inter-proxy tunnel.
const (
	metaSecure = "S " // payload already encrypted end-to-end (HTTPS)
	metaPlain  = "P " // cleartext HTTP: wrap in a proxy-to-proxy channel
)

// Remote is the proxy outside the censored network.
type Remote struct {
	Env netx.Env
	// DialHost resolves and dials origin servers.
	DialHost func(host string, port int) (net.Conn, error)
	// Secret is the shared key material for blinding-scheme derivation.
	Secret []byte
	// Epoch selects the current blinding scheme; must match the domestic
	// proxy (rotation is an operator action on both ends).
	Epoch uint64
	// Identity authenticates the remote to the domestic proxy on
	// plain-HTTP per-stream channels.
	Identity *pki.Identity
	// SchemeOverride, if set, replaces epoch-derived blinding (ablations
	// use blinding.Identity to disable blinding entirely).
	SchemeOverride blinding.Scheme

	mu    sync.Mutex
	lns   []net.Listener
	sess  []*mux.Session
	opens obs.Counter
	dens  obs.Counter

	flowTrace   atomic.Pointer[obs.Trace]
	muxCounters atomic.Pointer[mux.Counters]
}

// RemoteStats counts tunnel activity.
type RemoteStats struct {
	StreamsOpened int64
	StreamsDenied int64
}

// Stats returns a snapshot of the remote proxy's counters.
func (r *Remote) Stats() RemoteStats {
	return RemoteStats{StreamsOpened: r.opens.Value(), StreamsDenied: r.dens.Value()}
}

// Instrument publishes the remote's stream counters and its carriers' mux
// frame counters on reg. Multiple Remote instances registering on the
// same registry aggregate (snapshot sums same-name sources).
func (r *Remote) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("core.remote.streams_opened", &r.opens)
	reg.RegisterCounter("core.remote.streams_denied", &r.dens)
	r.muxCounters.Store(&mux.Counters{
		FramesIn:   reg.Counter("mux.remote.frames_in"),
		FramesOut:  reg.Counter("mux.remote.frames_out"),
		Keepalives: reg.Counter("mux.remote.keepalives"),
	})
}

// SetTrace installs (or, with nil, removes) a flow tracer receiving a
// span for every origin connection made on a tunneled stream's behalf.
func (r *Remote) SetTrace(t *obs.Trace) { r.flowTrace.Store(t) }

// SetEpoch rotates the blinding scheme for subsequently accepted tunnels.
func (r *Remote) SetEpoch(epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Epoch = epoch
}

func (r *Remote) scheme() blinding.Scheme {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.SchemeOverride != nil {
		return r.SchemeOverride
	}
	return blinding.SchemeForEpoch(r.Secret, r.Epoch)
}

// Serve accepts domestic-proxy tunnel connections from ln. Anything that
// does not speak the current epoch's blinded protocol is dropped at the
// first malformed frame — the probe-resistance property.
func (r *Remote) Serve(ln net.Listener) {
	r.mu.Lock()
	r.lns = append(r.lns, ln)
	r.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		blinded := blinding.WrapConn(conn, r.scheme())
		sess := mux.NewSession(blinded, r.Env, r.acceptStream)
		sess.SetCounters(r.muxCounters.Load())
		r.mu.Lock()
		// Prune dead carriers so the list tracks live peers only.
		live := r.sess[:0]
		for _, s := range r.sess {
			if s.Err() == nil {
				live = append(live, s)
			}
		}
		r.sess = append(live, sess)
		r.mu.Unlock()
	}
}

// Close shuts down the remote proxy: listeners and every live carrier
// session. Killing the carriers matters for takedown modeling — a seized
// VM does not keep serving established tunnels.
func (r *Remote) Close() {
	r.mu.Lock()
	lns := r.lns
	sessions := r.sess
	r.lns, r.sess = nil, nil
	r.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, s := range sessions {
		s.Close()
	}
}

// acceptStream handles one tunneled stream open.
func (r *Remote) acceptStream(meta []byte) (net.Conn, error) {
	m := string(meta)
	secure := strings.HasPrefix(m, metaSecure)
	plain := strings.HasPrefix(m, metaPlain)
	if !secure && !plain {
		r.dens.Inc()
		return nil, fmt.Errorf("core: bad stream metadata")
	}
	host, port, err := splitHostPort(m[2:])
	if err != nil {
		r.dens.Inc()
		return nil, err
	}
	origin, err := r.DialHost(host, port)
	if err != nil {
		r.dens.Inc()
		r.flowTrace.Load().Addf("core", "origin-connect", "%s:%d failed: %v", host, port, err)
		return nil, err
	}
	r.opens.Inc()
	kind := "https passthrough"
	if plain {
		kind = "http via per-stream channel"
	}
	r.flowTrace.Load().Addf("core", "origin-connect", "%s:%d (%s)", host, port, kind)

	if secure {
		// HTTPS passthrough: the browser's TLS rides the blinded tunnel
		// untouched (no double encryption).
		return origin, nil
	}
	// Cleartext HTTP: terminate a proxy-to-proxy encrypted channel here,
	// forwarding plaintext to the origin.
	near, far := netx.Pipe(r.Env)
	r.Env.Spawn.Go(func() {
		tconn := tlssim.Server(far, tlssim.Config{Certificate: r.Identity.DER, Rand: r.Env.Rand})
		defer tconn.Close()
		defer origin.Close()
		r.Env.Spawn.Go(func() {
			netx.Copy(tconn, origin)
			tconn.Close()
			origin.Close()
		})
		netx.Copy(origin, tconn)
		origin.Close()
	})
	return near, nil
}

func splitHostPort(s string) (string, int, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("core: target %q missing port", s)
	}
	port, err := strconv.Atoi(s[i+1:])
	if err != nil || port <= 0 || port > 65535 {
		return "", 0, fmt.Errorf("core: bad port in %q", s)
	}
	return s[:i], port, nil
}
