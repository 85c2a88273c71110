// Package cache is the domestic proxy's shared content cache: a
// byte-budgeted sharded LRU store with HTTP-aware freshness, singleflight
// request coalescing, and admission control.
//
// The paper's deployment served every user's Scholar accesses through one
// domestic VM, so N concurrent clients re-fetched the identical static
// objects across the border link N times. Placing a shared, whitelist-
// scoped cache at the domestic proxy removes that redundancy: a fresh hit
// is served without touching the border link (or the GFW) at all, a stale
// entry is revalidated with a conditional request (a 304 refreshes it
// without re-shipping the body), and concurrent identical misses collapse
// into a single upstream fetch whose response fans out to every waiter —
// but only when admission accepts it: a per-user response (Set-Cookie,
// private, no-store) is never fanned out or remembered as shareable, and
// the cache stands aside (Uncacheable) so each user fetches with their
// own credentials.
//
// Everything is deterministic under the virtual clock: time comes from
// netx.Env.Clock, blocking uses netx.Env.Sync condition variables, the
// only entropy is the injectable shard-hash seed, and eviction order is
// the LRU core's deterministic order.
package cache

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scholarcloud/internal/cache/lru"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
)

// Options configures a Cache. The zero value selects every default.
type Options struct {
	// Capacity is the total byte budget across all shards (default 64 MiB).
	Capacity int64
	// Shards is the number of independently locked LRU shards; it must be a
	// power of two (default 8).
	Shards int
	// MaxObjectBytes caps a single admitted response (default Capacity/64),
	// so one huge object cannot flush the working set.
	MaxObjectBytes int64
	// DefaultTTL is the heuristic freshness lifetime for responses without
	// explicit cache metadata (default 60 s).
	DefaultTTL time.Duration
	// Seed salts the shard hash — the cache's only entropy, injected so a
	// simulated world is a pure function of its seed.
	Seed uint64
}

// Validate rejects nonsensical configurations.
func (o Options) Validate() error {
	if o.Capacity < 0 {
		return fmt.Errorf("cache: Capacity is negative (%d)", o.Capacity)
	}
	if o.Shards < 0 || (o.Shards > 0 && o.Shards&(o.Shards-1) != 0) {
		return fmt.Errorf("cache: Shards must be a power of two (got %d)", o.Shards)
	}
	if o.MaxObjectBytes < 0 {
		return fmt.Errorf("cache: MaxObjectBytes is negative (%d)", o.MaxObjectBytes)
	}
	if o.DefaultTTL < 0 {
		return fmt.Errorf("cache: DefaultTTL is negative (%v)", o.DefaultTTL)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Capacity == 0 {
		o.Capacity = 64 << 20
	}
	if o.Shards == 0 {
		o.Shards = 8
	}
	if o.MaxObjectBytes == 0 {
		o.MaxObjectBytes = o.Capacity / 64
	}
	if o.DefaultTTL == 0 {
		o.DefaultTTL = 60 * time.Second
	}
	return o
}

// Outcome classifies how a Fetch was served.
type Outcome int

// Outcomes.
const (
	// Hit: a fresh stored response was served locally.
	Hit Outcome = iota
	// Revalidated: a stale entry was refreshed by an upstream 304 and its
	// stored body served (no body crossed the link).
	Revalidated
	// Coalesced: this caller waited on another caller's in-flight fetch of
	// the same key and shares its response.
	Coalesced
	// Miss: fetched upstream and stored.
	Miss
	// Bypass: fetched upstream; admission control refused to store it.
	Bypass
	// Uncacheable: the key is known non-shareable (this fetch coalesced
	// onto a flight whose response was refused admission, or a recent
	// fetch of the key was), so the cache stood aside without fetching.
	// Fetch returns a nil response for this outcome: the caller must
	// perform its own upstream fetch with its own credentials — sharing
	// the flight's response would hand one user's content to another.
	Uncacheable
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Revalidated:
		return "revalidated"
	case Coalesced:
		return "coalesced"
	case Miss:
		return "miss"
	case Bypass:
		return "bypass"
	case Uncacheable:
		return "uncacheable"
	default:
		return "unknown"
	}
}

// Fetcher performs the upstream fetch on a miss. cond carries conditional
// headers (If-None-Match) to merge into the upstream request when the
// cache holds a revalidatable stale entry; it is nil on a cold miss.
type Fetcher func(cond map[string]string) (*httpsim.Response, error)

// SiblingFetcher fetches key through peer (the owning shard) instead of
// across the border. It requests the full object (the owner manages its
// own revalidation state); an error means the peer is unreachable or
// declined, and the caller falls back to its own border fetch.
type SiblingFetcher func(peer, key string) (*httpsim.Response, error)

// Peers makes the cache fleet-aware: in a sharded domestic tier every key
// has one owning shard (consistent-hash ownership), and a local miss on a
// non-owning shard asks the owner first — an ICP/CARP-style sibling fetch
// that stays inside the domestic network — before crossing the censored
// border. Combined with the owner's own singleflight, K shards fetch each
// shared object across the border exactly once.
type Peers struct {
	// Self is this shard's name (its proxy "host:port").
	Self string
	// Owner maps a cache key to the name of the shard owning it.
	Owner func(key string) string
	// Fetch performs the sibling fetch against the owning peer.
	Fetch SiblingFetcher
}

// object is one stored response.
type object struct {
	resp    *httpsim.Response
	etag    string
	expires time.Time
	cost    int64
}

// flight is one in-progress upstream fetch that later identical requests
// coalesce onto.
type flight struct {
	cond netx.Cond // bound to the shard mutex
	done bool
	// shared reports whether resp may fan out to coalesced waiters: true
	// only when admission accepted (or revalidation refreshed) it. A
	// response that admission refused is per-user by definition, and
	// waiters must not consume it.
	shared bool
	resp   *httpsim.Response
	err    error
}

// negativeEntries bounds each shard's memory of recently-bypassed keys
// (cost 1 per key in the LRU core).
const negativeEntries = 1024

// Cache is the shared content cache. All methods are safe for concurrent
// use.
type Cache struct {
	opts   Options
	env    netx.Env
	mask   uint64
	salt   uint64
	shards []*shard

	peersMu sync.RWMutex
	peers   *Peers

	hits        obs.Counter
	misses      obs.Counter
	revalidated obs.Counter
	bypass      obs.Counter
	coalesced   obs.Counter
	uncacheable obs.Counter
	evictions   obs.Counter

	siblingFetches obs.Counter
	siblingErrors  obs.Counter
	borderFetches  obs.Counter

	hitSeconds *obs.Histogram // nil until Instrument
}

type shard struct {
	mu       sync.Mutex
	store    *lru.Cache
	inflight map[string]*flight
	// neg remembers keys whose last response was refused admission
	// (value: the expiry of that memory). Requests for a remembered key
	// neither coalesce nor populate — the cache stands aside so each
	// user's fetch carries its own credentials.
	neg *lru.Cache
}

// New creates a cache on env. The environment decides the clock (virtual
// in simulation, wall elsewhere) and the scheduler-aware condition
// variables coalesced waiters block on.
func New(env netx.Env, opts Options) (*Cache, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	c := &Cache{
		opts: opts,
		env:  env,
		mask: uint64(opts.Shards - 1),
		salt: splitmix64(opts.Seed ^ 0x5ca1ab1ecac4e000),
	}
	perShard := opts.Capacity / int64(opts.Shards)
	if perShard < 1 {
		perShard = 1
	}
	for i := 0; i < opts.Shards; i++ {
		s := &shard{inflight: make(map[string]*flight)}
		s.store = lru.New(perShard, func(string, any, int64) { c.evictions.Inc() })
		s.neg = lru.New(negativeEntries, nil)
		c.shards = append(c.shards, s)
	}
	return c, nil
}

// Instrument publishes the cache's counters, occupancy gauges, and
// hit-latency histogram on reg (they surface on the deployment's admin
// /metrics endpoint through the same registry).
func (c *Cache) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("cache.hits", &c.hits)
	reg.RegisterCounter("cache.misses", &c.misses)
	reg.RegisterCounter("cache.revalidated", &c.revalidated)
	reg.RegisterCounter("cache.bypass", &c.bypass)
	reg.RegisterCounter("cache.coalesced_waiters", &c.coalesced)
	reg.RegisterCounter("cache.uncacheable", &c.uncacheable)
	reg.RegisterCounter("cache.evictions", &c.evictions)
	reg.RegisterCounter("cache.sibling_fetches", &c.siblingFetches)
	reg.RegisterCounter("cache.sibling_errors", &c.siblingErrors)
	reg.RegisterCounter("cache.border_fetches", &c.borderFetches)
	reg.RegisterFunc("cache.bytes", c.Bytes)
	reg.RegisterFunc("cache.entries", c.Entries)
	c.hitSeconds = reg.Histogram("cache.hit_seconds")
}

// Stats is a point-in-time summary of cache activity.
type Stats struct {
	Hits, Misses, Revalidated int64
	Bypass, Coalesced         int64
	Uncacheable               int64
	Evictions, Entries, Bytes int64
	// SiblingFetches counts leader fetches routed to an owning peer,
	// SiblingErrors the subset that failed and fell back to the border,
	// and BorderFetches the leader fetches that crossed the border.
	SiblingFetches, SiblingErrors, BorderFetches int64
}

// Snapshot returns current counter values.
func (c *Cache) Snapshot() Stats {
	return Stats{
		Hits:           c.hits.Value(),
		Misses:         c.misses.Value(),
		Revalidated:    c.revalidated.Value(),
		Bypass:         c.bypass.Value(),
		Coalesced:      c.coalesced.Value(),
		Uncacheable:    c.uncacheable.Value(),
		Evictions:      c.evictions.Value(),
		Entries:        c.Entries(),
		Bytes:          c.Bytes(),
		SiblingFetches: c.siblingFetches.Value(),
		SiblingErrors:  c.siblingErrors.Value(),
		BorderFetches:  c.borderFetches.Value(),
	}
}

// SetPeers joins (or leaves, with nil) the cache peering mesh. Safe to
// call while fetches are in flight; in-progress leaders keep the peer
// view they started with.
func (c *Cache) SetPeers(p *Peers) {
	c.peersMu.Lock()
	defer c.peersMu.Unlock()
	c.peers = p
}

func (c *Cache) peerView() *Peers {
	c.peersMu.RLock()
	defer c.peersMu.RUnlock()
	return c.peers
}

// Bytes returns the total stored cost across shards.
func (c *Cache) Bytes() int64 {
	var n int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.store.Used()
		s.mu.Unlock()
	}
	return n
}

// Entries returns the resident entry count across shards.
func (c *Cache) Entries() int64 {
	var n int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += int64(s.store.Len())
		s.mu.Unlock()
	}
	return n
}

// Keys returns the keys of every entry still fresh at the call instant,
// sorted, across all shards. This is the enumeration the autoscale
// warm-up and drain paths walk when a proxy joins or leaves the tier;
// sorting makes the result independent of the salted shard hash, so a
// pre-seed or handoff sweep visits keys in the same order in every run.
func (c *Cache) Keys() []string {
	now := c.env.Clock.Now()
	var keys []string
	for _, s := range c.shards {
		s.mu.Lock()
		for _, k := range s.store.Keys() {
			if v, ok := s.store.Peek(k); ok {
				if obj := v.(*object); now.Before(obj.expires) {
					keys = append(keys, k)
				}
			}
		}
		s.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// Fetch serves key from the cache, coalescing concurrent misses: a fresh
// entry is returned immediately; a stale-or-absent entry makes the first
// caller the fetch leader (stale entries add an If-None-Match conditional)
// while every concurrent caller for the same key blocks until the
// leader's response fans out. Only an admitted (or revalidated) response
// fans out: when admission refuses the leader's response it is per-user,
// and every waiter — like every later caller inside the negative-memory
// window — gets (nil, Uncacheable, nil) and must fetch upstream itself.
// The returned response is the caller's own shallow copy (shared body
// bytes, private header map).
//
// When peering is configured (SetPeers) and another shard owns key, the
// leader's fetch is routed to the owning peer instead of across the
// border; the peer's response goes through normal admission so the local
// shard keeps a replica. A sibling failure falls back to the border
// fetch — peer death degrades cost, never availability.
func (c *Cache) Fetch(key string, fetch Fetcher) (*httpsim.Response, Outcome, error) {
	return c.fetchShared(key, fetch, true)
}

// FetchLocal is Fetch without peer forwarding: the path a sibling request
// takes at the owning shard, so a rehash race or ownership disagreement
// degrades to one extra border fetch instead of a forwarding loop.
func (c *Cache) FetchLocal(key string, fetch Fetcher) (*httpsim.Response, Outcome, error) {
	return c.fetchShared(key, fetch, false)
}

func (c *Cache) fetchShared(key string, fetch Fetcher, peering bool) (*httpsim.Response, Outcome, error) {
	start := c.env.Clock.Now()
	s := c.shards[c.shardIndex(key)]
	s.mu.Lock()
	if obj := s.lookup(key); obj != nil && start.Before(obj.expires) {
		resp := cloneResponse(obj.resp)
		s.mu.Unlock()
		c.hits.Inc()
		if h := c.hitSeconds; h != nil {
			h.ObserveDuration(c.env.Clock.Now().Sub(start))
		}
		return resp, Hit, nil
	}
	if exp, ok := s.neg.Peek(key); ok {
		if start.Before(exp.(time.Time)) {
			s.mu.Unlock()
			c.uncacheable.Inc()
			return nil, Uncacheable, nil
		}
		// The memory expired: re-probe cacheability below.
		s.neg.Remove(key)
	}
	if f, ok := s.inflight[key]; ok {
		c.coalesced.Inc()
		for !f.done {
			f.cond.Wait()
		}
		resp, err, shared := f.resp, f.err, f.shared
		s.mu.Unlock()
		if err != nil {
			return nil, Coalesced, err
		}
		if !shared {
			c.uncacheable.Inc()
			return nil, Uncacheable, nil
		}
		return cloneResponse(resp), Coalesced, nil
	}

	// This caller leads the upstream fetch.
	f := &flight{cond: c.env.Sync.NewCond(&s.mu)}
	s.inflight[key] = f
	stale := s.lookup(key)
	var cond map[string]string
	if stale != nil && stale.etag != "" {
		cond = map[string]string{"If-None-Match": stale.etag}
	}
	s.mu.Unlock()

	var resp *httpsim.Response
	var err error
	fetched := false
	if peers := c.peerView(); peering && peers != nil && peers.Owner != nil && peers.Fetch != nil {
		if owner := peers.Owner(key); owner != "" && owner != peers.Self {
			c.siblingFetches.Inc()
			if resp, err = peers.Fetch(owner, key); err == nil && resp != nil {
				fetched = true
			} else {
				// The owner is unreachable (mid-takedown, rehash race):
				// fall back to our own border fetch.
				c.siblingErrors.Inc()
				resp, err = nil, nil
			}
		}
	}
	if !fetched {
		c.borderFetches.Inc()
		resp, err = fetch(cond)
	}

	s.mu.Lock()
	outcome := Miss
	switch {
	case err != nil:
		f.err = err
	case resp.StatusCode == 304 && stale != nil:
		// RFC 9111 §4.3.4: the 304's refreshed metadata updates the stored
		// entry's. Merge into a copy (outstanding clones of the old
		// response must not observe the mutation) and recompute freshness
		// from the merged headers, so metadata the 304 omits persists.
		merged := cloneResponse(stale.resp)
		for k, v := range resp.Header {
			merged.Header[k] = v
		}
		stale.resp = merged
		if et := merged.Header["Etag"]; et != "" {
			stale.etag = et
		}
		stale.cost = responseCost(merged)
		stale.expires = c.env.Clock.Now().Add(freshnessTTL(merged.Header, c.opts.DefaultTTL))
		// Re-admit: charges the refreshed cost, promotes the entry, and
		// restores it if a concurrent insertion evicted it while the
		// revalidation was in flight.
		s.store.Add(key, stale, stale.cost)
		s.neg.Remove(key)
		f.resp = stale.resp
		f.shared = true
		outcome = Revalidated
		c.revalidated.Inc()
	default:
		cost := responseCost(resp)
		if admit(resp, cost, c.opts.MaxObjectBytes) {
			s.store.Add(key, &object{
				resp:    resp,
				etag:    resp.Header["Etag"],
				expires: c.env.Clock.Now().Add(freshnessTTL(resp.Header, c.opts.DefaultTTL)),
				cost:    cost,
			}, cost)
			s.neg.Remove(key)
			f.shared = true
			c.misses.Inc()
		} else {
			// A non-cacheable response invalidates whatever was stored: the
			// origin is telling us the representation is per-user or gone.
			s.store.Remove(key)
			// Remember per-user keys (a complete response that admission
			// refused) so later callers stand aside instead of coalescing;
			// transient non-200s are not remembered.
			if resp.StatusCode == 200 {
				s.neg.Add(key, c.env.Clock.Now().Add(c.opts.DefaultTTL), 1)
			}
			outcome = Bypass
			c.bypass.Inc()
		}
		f.resp = resp
	}
	f.done = true
	f.cond.Broadcast()
	delete(s.inflight, key)
	s.mu.Unlock()

	if err != nil {
		return nil, outcome, err
	}
	return cloneResponse(f.resp), outcome, nil
}

// lookup returns the stored object for key (promoting it) or nil.
func (s *shard) lookup(key string) *object {
	v, ok := s.store.Get(key)
	if !ok {
		return nil
	}
	return v.(*object)
}

// shardIndex hashes key (salted) onto a shard.
func (c *Cache) shardIndex(key string) uint64 {
	// FNV-1a, salted with the injected seed.
	h := uint64(14695981039346656037) ^ c.salt
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h & c.mask
}

// cloneResponse gives each caller a private header map over the shared
// body bytes, so one waiter mutating headers cannot corrupt another's
// view of the stored entry.
func cloneResponse(r *httpsim.Response) *httpsim.Response {
	h := make(map[string]string, len(r.Header))
	for k, v := range r.Header {
		h[k] = v
	}
	return &httpsim.Response{
		StatusCode: r.StatusCode,
		Status:     r.Status,
		Header:     h,
		Body:       r.Body,
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
