package httpsim

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scholarcloud/internal/cache/lru"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/tlssim"
)

// NetStack is how a browser reaches the network: directly, or through one
// of the access methods under study. DialHost receives the hostname (not
// an IP) because proxy-style methods resolve names remotely — which is
// precisely why they dodge local DNS poisoning.
type NetStack interface {
	// Name identifies the method ("direct", "shadowsocks", ...).
	Name() string
	// DialHost opens a stream to host:port through the method.
	DialHost(host string, port int) (net.Conn, error)
}

// HTTPProxier is an optional NetStack refinement for methods that proxy
// plain HTTP via absolute-URI requests (PAC-configured proxies). The
// browser sends "GET http://host/path" over a connection to the proxy
// instead of dialing the origin.
type HTTPProxier interface {
	// HTTPProxy reports the proxy to use for plain-HTTP requests to host,
	// and whether one applies.
	HTTPProxy(host string) (proxyHostPort string, ok bool)
}

// HTTPSProxier is an optional NetStack refinement for methods whose
// proxy terminates HTTPS as a gateway: the browser sends
// "GET https://host/path" in absolute-URI form over its proxy
// connection instead of opening an end-to-end CONNECT tunnel. This is
// what lets the domestic proxy's shared content cache see (and serve)
// requests that a CONNECT tunnel would carry opaquely.
type HTTPSProxier interface {
	// HTTPSProxy reports the gateway proxy for HTTPS requests to host,
	// and whether one applies.
	HTTPSProxy(host string) (proxyHostPort string, ok bool)
}

// VisitStats summarizes one page load.
type VisitStats struct {
	URL             string
	PLT             time.Duration
	Redirects       int
	NewConns        int
	TLSHandshakes   int
	Resources       int
	CacheHits       int
	BytesFetched    int64
	FirstVisit      bool
	AccountRecorded bool
	Failed          bool
	Err             error
}

// Browser models the measurement client: it loads a page (main document,
// redirects, subresources, and Google's first-visit account-recording
// call), maintains cookie and content caches, and reports PLT.
//
// Subresources are fetched over one keep-alive connection per host with
// pipelined requests — a deliberate simplification of Chrome's six
// parallel connections that preserves the latency structure (one request
// wave, responses streaming back) without requiring parallel goroutine
// coordination inside the virtual-time scheduler.
type Browser struct {
	stack NetStack
	clock netx.Clock

	mu      sync.Mutex
	cookies map[string]string // host -> cookie
	cache   *lru.Cache        // URL -> cached (bounded; cost 1 per entry)
	visited map[string]bool   // host -> seen before (per-browser "account known")

	flowTrace atomic.Pointer[obs.Trace]
	om        *browserObs
}

// browserObs holds the browser's resolved metric handles (PLT phase
// breakdown); nil when uninstrumented.
type browserObs struct {
	visits, visitFailures, fetches  *obs.Counter
	redirects, conns, tlsHandshakes *obs.Counter
	cacheHits, accountRecords       *obs.Counter
	pltSeconds, fetchSeconds        *obs.Histogram
}

// Instrument publishes the browser's visit/fetch counters and PLT phase
// histograms on reg. Call before the first Visit.
func (b *Browser) Instrument(reg *obs.Registry) {
	b.om = &browserObs{
		visits:         reg.Counter("http.visits"),
		visitFailures:  reg.Counter("http.visit_failures"),
		fetches:        reg.Counter("http.fetches"),
		redirects:      reg.Counter("http.redirects"),
		conns:          reg.Counter("http.conns"),
		tlsHandshakes:  reg.Counter("http.tls_handshakes"),
		cacheHits:      reg.Counter("http.cache_hits"),
		accountRecords: reg.Counter("http.account_records"),
		pltSeconds:     reg.Histogram("http.plt_seconds"),
		fetchSeconds:   reg.Histogram("http.fetch_seconds"),
	}
}

// SetTrace installs (or, with nil, removes) a flow tracer receiving spans
// for each phase of a page load.
func (b *Browser) SetTrace(t *obs.Trace) { b.flowTrace.Store(t) }

// browserCacheEntries bounds the browser's content cache. Entries cost 1
// each (the simulated cache stores only "have it" bits, not bodies), so
// this is a URL-count budget: day-long Fig-5a loops stay O(1) in memory
// instead of growing a map without limit.
const browserCacheEntries = 4096

// NewBrowser creates a browser with empty caches on the given stack.
func NewBrowser(stack NetStack, clock netx.Clock) *Browser {
	return &Browser{
		stack:   stack,
		clock:   clock,
		cookies: make(map[string]string),
		cache:   lru.New(browserCacheEntries, nil),
		visited: make(map[string]bool),
	}
}

// ClearContentCache drops only the content cache, keeping cookies and
// DNS state — the configuration traffic measurements use so every access
// fetches the full page (as the paper's per-access traffic figure does)
// without re-triggering first-visit account recording.
func (b *Browser) ClearContentCache() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cache.Clear()
}

// ClearCaches drops cookie and content caches (used to measure first-time
// loads).
func (b *Browser) ClearCaches() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cookies = make(map[string]string)
	b.cache.Clear()
	b.visited = make(map[string]bool)
}

// visitConn is one pooled connection during a page load.
type visitConn struct {
	cc    *ClientConn
	https bool
}

// Visit loads the page at rawURL and returns its statistics.
func (b *Browser) Visit(rawURL string) *VisitStats {
	stats := &VisitStats{URL: rawURL}
	start := b.clock.Now()
	b.flowTrace.Load().Addf("http", "visit-start", "%s", rawURL)
	defer func() {
		stats.PLT = b.clock.Now().Sub(start)
		if b.om != nil {
			b.om.visits.Inc()
			if stats.Failed {
				b.om.visitFailures.Inc()
			} else {
				b.om.pltSeconds.ObserveDuration(stats.PLT)
			}
		}
		b.flowTrace.Load().Addf("http", "visit-done",
			"plt=%v resources=%d redirects=%d conns=%d bytes=%d failed=%v",
			stats.PLT, stats.Resources, stats.Redirects, stats.NewConns,
			stats.BytesFetched, stats.Failed)
	}()

	u, err := ParseURL(rawURL)
	if err != nil {
		stats.Failed = true
		stats.Err = err
		return stats
	}
	b.mu.Lock()
	stats.FirstVisit = !b.visited[u.Host]
	b.mu.Unlock()

	pool := make(map[string]*visitConn)
	defer func() {
		// Close in sorted key order: map iteration order would randomize
		// the FIN sequence and with it every downstream packet ID.
		keys := make([]string, 0, len(pool))
		for k := range pool {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pool[k].cc.Close()
		}
	}()

	body, err := b.fetch(pool, u, stats, 0)
	if err != nil {
		stats.Failed = true
		stats.Err = err
		return stats
	}

	// Parse directives from the document and load the page's parts.
	resources, acct := parseDirectives(body, u)
	for _, res := range resources {
		stats.Resources++
		b.mu.Lock()
		_, cached := b.cache.Get(res.String())
		b.mu.Unlock()
		if cached {
			stats.CacheHits++
			if b.om != nil {
				b.om.cacheHits.Inc()
			}
			continue
		}
		if _, err := b.fetch(pool, res, stats, 0); err != nil {
			stats.Failed = true
			stats.Err = fmt.Errorf("subresource %s: %w", res, err)
			return stats
		}
		b.mu.Lock()
		b.cache.Add(res.String(), true, 1)
		b.mu.Unlock()
	}

	// TCP-4: first-visit account recording uses its own connection to the
	// accounts host (Fig. 4 of the paper).
	if acct != nil {
		if _, err := b.fetch(pool, acct, stats, 0); err != nil {
			stats.Failed = true
			stats.Err = fmt.Errorf("account recording: %w", err)
			return stats
		}
		stats.AccountRecorded = true
		if b.om != nil {
			b.om.accountRecords.Inc()
		}
		b.flowTrace.Load().Addf("http", "account", "%s", acct)
	}

	b.mu.Lock()
	b.visited[u.Host] = true
	b.mu.Unlock()
	return stats
}

const maxRedirects = 5

// fetch retrieves one URL, following redirects, reusing pooled
// connections keyed by scheme+hostport.
func (b *Browser) fetch(pool map[string]*visitConn, u *URL, stats *VisitStats, depth int) ([]byte, error) {
	if depth > maxRedirects {
		return nil, fmt.Errorf("httpsim: too many redirects at %s", u)
	}

	// Plain HTTP through a PAC-configured proxy uses absolute-URI form.
	if u.Scheme == "http" {
		if hp, ok := b.stack.(HTTPProxier); ok {
			if proxyAddr, use := hp.HTTPProxy(u.Host); use {
				return b.fetchViaHTTPProxy(pool, proxyAddr, u, stats, depth)
			}
		}
	}
	// HTTPS through a gateway-mode proxy likewise goes absolute-URI: the
	// proxy terminates TLS toward the origin itself, which is what lets
	// its shared content cache see and serve the request (a CONNECT
	// tunnel would be opaque to it).
	if u.Scheme == "https" {
		if hp, ok := b.stack.(HTTPSProxier); ok {
			if proxyAddr, use := hp.HTTPSProxy(u.Host); use {
				return b.fetchViaHTTPProxy(pool, proxyAddr, u, stats, depth)
			}
		}
	}

	key := u.Scheme + "://" + u.HostPort()
	vc, ok := pool[key]
	if !ok {
		raw, err := b.stack.DialHost(u.Host, u.Port)
		if err != nil {
			return nil, err
		}
		stats.NewConns++
		if b.om != nil {
			b.om.conns.Inc()
		}
		b.flowTrace.Load().Addf("http", "connect", "%s", key)
		if u.Scheme == "https" {
			tconn := tlssim.Client(raw, tlssim.Config{ServerName: u.Host})
			if err := tconn.Handshake(); err != nil {
				tconn.Close()
				return nil, err
			}
			stats.TLSHandshakes++
			if b.om != nil {
				b.om.tlsHandshakes.Inc()
			}
			b.flowTrace.Load().Addf("http", "tls-handshake", "%s", u.Host)
			vc = &visitConn{cc: NewClientConn(tconn), https: true}
		} else {
			vc = &visitConn{cc: NewClientConn(raw)}
		}
		pool[key] = vc
	}

	req := &Request{Method: "GET", Target: u.Path, Host: u.Host, Header: map[string]string{}}
	b.attachCookie(req, u.Host)
	t0 := b.clock.Now()
	resp, err := vc.cc.RoundTrip(req)
	if err == nil && b.om != nil {
		b.om.fetches.Inc()
		b.om.fetchSeconds.ObserveDuration(b.clock.Now().Sub(t0))
	}
	if err != nil {
		// The pooled connection may have died (keep-alive teardown,
		// censor reset); retry once on a fresh one.
		vc.cc.Close()
		delete(pool, key)
		if depth < maxRedirects {
			return b.fetch(pool, u, stats, depth+1)
		}
		return nil, err
	}
	return b.finishResponse(pool, u, resp, stats, depth)
}

func (b *Browser) fetchViaHTTPProxy(pool map[string]*visitConn, proxyAddr string, u *URL, stats *VisitStats, depth int) ([]byte, error) {
	key := "proxy://" + proxyAddr
	vc, ok := pool[key]
	if !ok {
		host, portStr, found := strings.Cut(proxyAddr, ":")
		if !found {
			return nil, fmt.Errorf("httpsim: bad proxy address %q", proxyAddr)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			return nil, fmt.Errorf("httpsim: bad proxy port %q", portStr)
		}
		raw, err := b.stack.DialHost(host, port)
		if err != nil {
			return nil, err
		}
		stats.NewConns++
		if b.om != nil {
			b.om.conns.Inc()
		}
		b.flowTrace.Load().Addf("http", "connect", "%s", key)
		vc = &visitConn{cc: NewClientConn(raw)}
		pool[key] = vc
	}
	req := &Request{Method: "GET", Target: u.String(), Host: u.Host, Header: map[string]string{}}
	b.attachCookie(req, u.Host)
	t0 := b.clock.Now()
	resp, err := vc.cc.RoundTrip(req)
	if err != nil {
		vc.cc.Close()
		delete(pool, key)
		return nil, err
	}
	if b.om != nil {
		b.om.fetches.Inc()
		b.om.fetchSeconds.ObserveDuration(b.clock.Now().Sub(t0))
	}
	return b.finishResponse(pool, u, resp, stats, depth)
}

func (b *Browser) finishResponse(pool map[string]*visitConn, u *URL, resp *Response, stats *VisitStats, depth int) ([]byte, error) {
	stats.BytesFetched += int64(len(resp.Body))
	b.flowTrace.Load().Addf("http", "response", "%s %d (%d bytes)", u, resp.StatusCode, len(resp.Body))
	if resp.StatusCode == 301 || resp.StatusCode == 302 {
		loc := resp.Header["Location"]
		nu, err := ParseURL(loc)
		if err != nil {
			return nil, fmt.Errorf("httpsim: bad redirect %q: %w", loc, err)
		}
		stats.Redirects++
		if b.om != nil {
			b.om.redirects.Inc()
		}
		b.flowTrace.Load().Addf("http", "redirect", "%s -> %s", u, loc)
		return b.fetch(pool, nu, stats, depth+1)
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("httpsim: %s returned %d %s", u, resp.StatusCode, resp.Status)
	}
	if sc := resp.Header["Set-Cookie"]; sc != "" {
		b.mu.Lock()
		b.cookies[u.Host] = sc
		b.mu.Unlock()
	}
	return resp.Body, nil
}

func (b *Browser) attachCookie(req *Request, host string) {
	b.mu.Lock()
	if c, ok := b.cookies[host]; ok {
		req.Header["Cookie"] = c
	}
	b.mu.Unlock()
}

// resource directives embedded in documents:
//
//	RES <absolute-url> <size>     subresource to fetch
//	ACCT <absolute-url>           first-visit account recording endpoint
func parseDirectives(body []byte, base *URL) (resources []*URL, acct *URL) {
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "RES "):
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if u, err := ParseURL(fields[1]); err == nil {
					resources = append(resources, u)
				}
			}
		case strings.HasPrefix(line, "ACCT "):
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if u, err := ParseURL(fields[1]); err == nil {
					acct = u
				}
			}
		}
	}
	return resources, acct
}
