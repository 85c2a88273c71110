// Package tier is the domestic tier's control plane, written once for
// both clocks. The simulator's World (whose single proxy is a one-member
// tier), the real-socket DomesticTier and each process of a multi-process
// tier provision their own shards (hosts, listeners, proxies, caches) and
// hand this package the ordered member list; the Tier owns everything that
// coordinates them: the rendezvous ring and its health transitions (each
// counted, stamped and republished to the PAC), cache peering over the
// sibling-fetch path, standby parking, the autoscale controller with the
// tier half of its sample, and the warm-up admit / draining retire that
// move keys between shards without crossing the border.
//
// It lives beside internal/shard rather than inside it because it needs
// core.SiblingFetcher, and core → pac → shard would cycle.
package tier

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"scholarcloud/internal/autoscale"
	"scholarcloud/internal/cache"
	"scholarcloud/internal/core"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/shard"
)

// Member is one provisioned shard of the tier.
type Member struct {
	// Addr is the shard's public proxy "host:port": its name in the ring
	// and in the PAC, and the endpoint its peers dial for sibling fetches.
	Addr string
	// Cache is the shard's content cache: nil for a cacheless simulated
	// proxy, and for a member another process hosts (a multi-process
	// shard knows only its own cache). Peering and stats skip nil caches;
	// autoscaling needs every one.
	Cache *cache.Cache
	// Dial opens connections from this shard onto the domestic network: a
	// simulated host's Dial, or net.Dial.
	Dial func(network, address string) (net.Conn, error)
}

// Tier coordinates an ordered set of shards. Index i everywhere below is
// the member's position in the list New was given; shard 0 is the tier's
// anchor and never retires.
type Tier struct {
	members []Member
	ring    *shard.Ring
	now     func() time.Time
	publish func(up []string)
	// peered records that Peer wired the caches; an un-peered tier (the
	// simulator's sibling-fetch ablation) admits and retires without
	// moving keys.
	peered bool

	// mu serialises membership changes with their publication, so
	// concurrent transitions cannot interleave: publish sees every live
	// set in the order the ring produced it, each read atomically with the
	// change that produced it. publish must not call back into the Tier.
	mu            sync.Mutex
	downs, ups    obs.Counter
	lastRebalance time.Time
}

// New builds the tier's ring over members, all live. now stamps health
// transitions (the virtual clock or time.Now). publish receives the live
// shard addresses — once here, then after every membership change — and
// is where the caller refreshes its PAC.
func New(members []Member, now func() time.Time, publish func(up []string)) *Tier {
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = m.Addr
	}
	publish(addrs)
	return &Tier{members: members, ring: shard.NewRing(addrs), now: now, publish: publish}
}

// Ring returns the tier's rendezvous view.
func (t *Tier) Ring() *shard.Ring { return t.ring }

// Instrument publishes the tier's transition counters and membership
// gauges on reg: configured members, live shard count, and the
// last-rebalance timestamp (milliseconds since the Unix epoch on the
// tier's clock; 0 before the first transition). A real-socket tier calls
// it once per shard registry.
func (t *Tier) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("shard.director.mark_down", &t.downs)
	reg.RegisterCounter("shard.director.mark_up", &t.ups)
	reg.RegisterGaugeFunc("shard.director.live", func() int64 { return int64(len(t.ring.Up())) })
	reg.RegisterGaugeFunc("shard.director.members", func() int64 { return int64(len(t.members)) })
	reg.RegisterGaugeFunc("shard.director.last_rebalance_ms", func() int64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.lastRebalance.IsZero() {
			return 0
		}
		return t.lastRebalance.UnixMilli()
	})
}

// MarkDown coordinates a takedown: addr's key range rehashes to survivors
// (ring policy permitting) and the live set is republished.
func (t *Tier) MarkDown(addr string) { t.transition(t.ring.MarkDown, addr, &t.downs) }

// MarkUp readmits a recovered shard tier-wide.
func (t *Tier) MarkUp(addr string) { t.transition(t.ring.MarkUp, addr, &t.ups) }

// transition applies one health change to the ring, counts and stamps it,
// and publishes the resulting live set, all under t.mu.
func (t *Tier) transition(change func(string), addr string, count *obs.Counter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	change(addr)
	count.Inc()
	t.lastRebalance = t.now()
	t.publish(t.ring.Up())
}

// Peer wires the members' caches into a peering mesh: rendezvous key
// ownership, with a local miss filled from the owning peer over the
// domestic network (one border crossing per object for the whole tier)
// instead of across the border.
func (t *Tier) Peer() {
	for _, m := range t.members {
		if m.Cache == nil {
			continue
		}
		m.Cache.SetPeers(&cache.Peers{
			Self:  m.Addr,
			Owner: t.ring.Owner,
			Fetch: core.SiblingFetcher(m.Dial),
		})
	}
	t.peered = true
}

// CacheStats sums the members' cache counters.
func (t *Tier) CacheStats() cache.Stats {
	var total cache.Stats
	for _, m := range t.members {
		if m.Cache == nil {
			continue
		}
		s := m.Cache.Snapshot()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Revalidated += s.Revalidated
		total.Bypass += s.Bypass
		total.Coalesced += s.Coalesced
		total.Uncacheable += s.Uncacheable
		total.Evictions += s.Evictions
		total.Entries += s.Entries
		total.Bytes += s.Bytes
		total.SiblingFetches += s.SiblingFetches
		total.SiblingErrors += s.SiblingErrors
		total.BorderFetches += s.BorderFetches
	}
	return total
}

// Autoscale turns the static tier elastic. Members from index initial on
// are parked as standbys — out of the ring, so the published set and key
// ownership cover only the active prefix — and the returned controller
// grows and shrinks the active set through Scale. pol's MinShards
// defaults to initial and MaxShards to the tier size. demand is the
// caller's half of each sample (offered sessions/sec, and the recent
// page-load p99 or 0 when unknown); the tier supplies the active shard
// count and the cache hit rate. The caller instruments the controller
// and spawns its Run loop on its own clock.
func (t *Tier) Autoscale(initial int, pol autoscale.Policy, demand func() (sessionsPerSec float64, p99 time.Duration)) (*autoscale.Controller, error) {
	if initial < 1 || initial > len(t.members) {
		return nil, fmt.Errorf("tier: %d initially active shards, want 1..%d (the provisioned tier)", initial, len(t.members))
	}
	if pol.MinShards == 0 {
		pol.MinShards = initial
	}
	if pol.MaxShards == 0 {
		pol.MaxShards = len(t.members)
	}
	ctl, err := autoscale.New(autoscale.Config{
		Policy: pol,
		Sample: func() autoscale.Sample {
			sessions, p99 := demand()
			s := t.CacheStats()
			hitRate := -1.0
			if lookups := s.Hits + s.Misses; lookups > 0 {
				hitRate = float64(s.Hits) / float64(lookups)
			}
			return autoscale.Sample{
				ActiveShards:    len(t.ring.Up()),
				SessionsPerSec:  sessions,
				P99PLT:          p99,
				HitRate:         hitRate,
				HostUtilization: -1,
			}
		},
		Apply: t.Scale,
	})
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.members[initial:] {
		t.ring.MarkDown(m.Addr)
	}
	t.publish(t.ring.Up())
	return ctl, nil
}

// Scale is the controller's actuator: grow to `to` active shards by
// admitting standbys (lowest index first, each warmed up before joining
// the ring), shrink by retiring actives (highest index first, each
// drained with key handoff). Shard 0 never retires.
func (t *Tier) Scale(from, to int) error {
	for len(t.ring.Up()) < to {
		i := t.lowestStandby()
		if i < 0 {
			break
		}
		t.Admit(i)
	}
	for len(t.ring.Up()) > to {
		i := t.highestActive()
		if i <= 0 {
			break
		}
		t.Retire(i)
	}
	return nil
}

func (t *Tier) lowestStandby() int {
	for i, m := range t.members {
		if t.ring.IsDown(m.Addr) {
			return i
		}
	}
	return -1
}

func (t *Tier) highestActive() int {
	for i := len(t.members) - 1; i >= 0; i-- {
		if !t.ring.IsDown(t.members[i].Addr) {
			return i
		}
	}
	return -1
}

// activeKeys is the union of fresh cache keys across live shards, sorted
// so a warm-up sweep visits keys in the same order in every run.
func (t *Tier) activeKeys() []string {
	seen := make(map[string]bool)
	var keys []string
	for _, m := range t.members {
		if t.ring.IsDown(m.Addr) {
			continue
		}
		for _, k := range m.Cache.Keys() {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// errWarmupNoBorder makes a warm-up Fetch fail closed: when the sibling
// path cannot supply a key, the pre-seed skips it rather than crossing
// the border.
var errWarmupNoBorder = errors.New("tier: warm-up fetch must not cross the border")

func noBorder(map[string]string) (*httpsim.Response, error) { return nil, errWarmupNoBorder }

// Admit warms up standby shard i and admits it to the ring. Before the
// tier announces the join, the shard pre-seeds every fresh key it is
// about to own — ownership computed on a candidate ring that includes it
// — from the key's current owner over the sibling-fetch path: the joiner
// is still outside the live ring, so its peered Fetch routes to the
// owner, and the border fetcher refuses, so a scale-up moves only
// domestic bytes. Returns the number of keys pre-seeded; 0 for an
// out-of-range or already-active i. In a simulated world it must be
// called inside a Run window (it drives simulated dials).
func (t *Tier) Admit(i int) int {
	if i < 0 || i >= len(t.members) {
		return 0
	}
	joiner := t.members[i]
	if !t.ring.IsDown(joiner.Addr) {
		return 0
	}
	preseeded := 0
	if t.peered {
		cand := shard.NewRing(append(t.ring.Up(), joiner.Addr))
		for _, key := range t.activeKeys() {
			if cand.Owner(key) != joiner.Addr {
				continue
			}
			if _, _, err := joiner.Cache.Fetch(key, noBorder); err == nil {
				preseeded++
			}
		}
	}
	t.MarkUp(joiner.Addr)
	return preseeded
}

// Retire drains active shard i out of the ring: the tier first
// rehashes its key range and republishes the live set (new sessions route
// to survivors; the shard's listener stays open so in-flight sessions
// finish), then every fresh key the leaver held is pulled by its new
// owner over the sibling path — a domestic transfer, not a border
// refetch. Returns the number of keys handed off; 0 for shard 0 (which
// never retires), an out-of-range i, or a shard already out of the ring.
// Same Run-window rule as Admit.
func (t *Tier) Retire(i int) int {
	if i <= 0 || i >= len(t.members) {
		return 0
	}
	leaver := t.members[i]
	if t.ring.IsDown(leaver.Addr) {
		return 0
	}
	var keys []string
	if t.peered {
		keys = leaver.Cache.Keys()
	}
	t.MarkDown(leaver.Addr)
	handed := 0
	for _, key := range keys {
		newOwner := t.ring.Owner(key)
		oi := slices.IndexFunc(t.members, func(m Member) bool { return m.Addr == newOwner })
		if oi < 0 || oi == i {
			continue
		}
		owner := t.members[oi]
		fromLeaver := func(map[string]string) (*httpsim.Response, error) {
			return core.SiblingFetcher(owner.Dial)(leaver.Addr, key)
		}
		if _, _, err := owner.Cache.FetchLocal(key, fromLeaver); err == nil {
			handed++
		}
	}
	return handed
}
