// Package shard assigns users and cache keys onto a horizontally sharded
// domestic-proxy tier by rendezvous (highest-random-weight) hashing.
//
// One domestic proxy fronting the whole user base is a bottleneck and a
// single point of failure. This package is the tier's routing brain: a
// Ring of shard names (proxy "host:port" endpoints) scores every
// (key, shard) pair with a deterministic hash and routes the key to the
// highest score. Rendezvous hashing was chosen over a token ring for two
// properties the tier depends on:
//
//   - Minimal disruption: removing a dead shard remaps only the keys that
//     shard owned — every other key keeps its owner, so survivors' caches
//     stay warm through a takedown.
//   - Browser parity: the scoring function is plain 32-bit FNV-1a in
//     JS-safe arithmetic, so the generated PAC file (internal/pac) can
//     reproduce the exact assignment inside a real browser's
//     FindProxyForURL — the simulator and a stock browser route a user to
//     the same shard.
//
// The Director is the tier's coordinated health/takedown control plane:
// marking a shard down rehashes its key range to survivors (unless the
// rehash-on-death ablation is off) and notifies subscribers (PAC refresh,
// routing tables) in registration order.
package shard

import (
	"sort"
	"sync"
	"time"

	"scholarcloud/internal/obs"
)

// Hash32 is 32-bit FNV-1a over s, written so that a JavaScript mirror
// using only ^, <<, + and >>> 0 produces bit-identical values (see
// pac.Config.JavaScript). The FNV prime 16777619 is decomposed into
// shift-adds (2^24+2^8+2^7+2^4+2^1+2^0) because JS bitwise ops work on
// 32-bit integers while * would go through 53-bit floats and lose the
// high bits.
func Hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h = h + h<<1 + h<<4 + h<<7 + h<<8 + h<<24
	}
	return h
}

// Score is the rendezvous weight of key on shard name: the hash of
// "key|name". Routing picks the shard maximizing it.
func Score(key, name string) uint32 {
	return Hash32(key + "|" + name)
}

// Ring is a rendezvous-hash view of the shard tier. All methods are safe
// for concurrent use.
type Ring struct {
	mu    sync.RWMutex
	names []string        // all shards, in configured order
	down  map[string]bool // shards currently routed around
	// rehashOnDeath controls whether Owner skips down shards. True is the
	// production behaviour (a dead shard's key range rehashes to
	// survivors); false is the ablation where ownership stays pinned and
	// peers fall back to border fetches for orphaned keys.
	rehashOnDeath bool
}

// NewRing builds a ring over the shard names (proxy "host:port"
// endpoints), all up, with rehash-on-death enabled.
func NewRing(names []string) *Ring {
	return &Ring{
		names:         append([]string(nil), names...),
		down:          make(map[string]bool),
		rehashOnDeath: true,
	}
}

// SetRehashOnDeath toggles whether Owner routes around down shards.
func (r *Ring) SetRehashOnDeath(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rehashOnDeath = on
}

// Names returns all configured shards, up or down.
func (r *Ring) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

// Up returns the live shards, in configured order.
func (r *Ring) Up() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	up := make([]string, 0, len(r.names))
	for _, n := range r.names {
		if !r.down[n] {
			up = append(up, n)
		}
	}
	return up
}

// MarkDown routes around shard name. Unknown names are ignored.
func (r *Ring) MarkDown(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.down[name] = true
}

// MarkUp readmits shard name.
func (r *Ring) MarkUp(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.down, name)
}

// IsDown reports whether shard name is currently routed around.
func (r *Ring) IsDown(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.down[name]
}

// Owner returns the shard owning key: the highest rendezvous score among
// live shards (or among all shards when rehash-on-death is off). Ties
// break toward the lexicographically smaller name so every peer computes
// the same owner. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	owner, best, have := "", uint32(0), false
	for _, n := range r.names {
		if r.rehashOnDeath && r.down[n] {
			continue
		}
		s := Score(key, n)
		if !have || s > best || (s == best && n < owner) {
			owner, best, have = n, s, true
		}
	}
	return owner
}

// Assign returns key's live shards in rendezvous preference order —
// Owner first, then each fallback. This is the per-user failover list the
// PAC file renders ("PROXY a; PROXY b; ...").
func (r *Ring) Assign(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	up := make([]string, 0, len(r.names))
	for _, n := range r.names {
		if !r.down[n] {
			up = append(up, n)
		}
	}
	sort.SliceStable(up, func(i, j int) bool {
		si, sj := Score(key, up[i]), Score(key, up[j])
		if si != sj {
			return si > sj
		}
		return up[i] < up[j]
	})
	return up
}

// Director is the shard tier's control plane: it owns the Ring's health
// state and fans every transition out to subscribers — the PAC policy
// (refresh the proxy list real browsers download), the experiment
// harness, the admin surface — in registration order, under one lock, so
// no subscriber ever observes a half-applied transition.
type Director struct {
	ring *Ring

	mu       sync.Mutex
	onChange []func(up []string)
	downs    obs.Counter
	ups      obs.Counter
	// now stamps transitions: the virtual clock in simulated worlds,
	// time.Now in deployment, nil to leave transitions unstamped.
	now           func() time.Time
	lastRebalance time.Time
}

// NewDirector wraps ring in a control plane.
func NewDirector(ring *Ring) *Director {
	return &Director{ring: ring}
}

// Ring returns the underlying rendezvous ring.
func (d *Director) Ring() *Ring { return d.ring }

// OnChange registers fn to run (with the post-transition live set) after
// every MarkDown/MarkUp. Callbacks run synchronously in registration
// order.
func (d *Director) OnChange(fn func(up []string)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onChange = append(d.onChange, fn)
}

// SetClock installs the time source transitions are stamped with (the
// virtual clock in simulated worlds, time.Now in deployment). A nil
// clock leaves LastRebalance at its zero value.
func (d *Director) SetClock(now func() time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now = now
}

// LastRebalance returns the clock reading of the most recent
// MarkDown/MarkUp, or the zero time before the first transition (or when
// no clock is installed).
func (d *Director) LastRebalance() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastRebalance
}

// MarkDown takes shard name out of service: its key range rehashes to
// survivors (ring policy permitting) and every subscriber is notified so
// users get a refreshed PAC and the tier stops routing to it.
func (d *Director) MarkDown(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ring.MarkDown(name)
	d.downs.Inc()
	d.notifyLocked()
}

// MarkUp returns shard name to service and notifies subscribers.
func (d *Director) MarkUp(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ring.MarkUp(name)
	d.ups.Inc()
	d.notifyLocked()
}

// notifyLocked stamps the transition and fans it out while d.mu is still
// held, so concurrent transitions cannot interleave: every subscriber
// sees the same sequence of up-sets, each read atomically with the ring
// mutation that produced it. Subscribers must not call back into the
// Director.
func (d *Director) notifyLocked() {
	if d.now != nil {
		d.lastRebalance = d.now()
	}
	up := d.ring.Up()
	for _, fn := range d.onChange {
		fn(up)
	}
}

// Instrument publishes the control plane's transition counters and
// membership gauges on reg: configured members, live shard count, and
// the last-rebalance timestamp (milliseconds since the Unix epoch on the
// Director's clock; 0 before the first transition).
func (d *Director) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("shard.director.mark_down", &d.downs)
	reg.RegisterCounter("shard.director.mark_up", &d.ups)
	reg.RegisterGaugeFunc("shard.director.live", func() int64 {
		return int64(len(d.ring.Up()))
	})
	reg.RegisterGaugeFunc("shard.director.members", func() int64 {
		return int64(len(d.ring.Names()))
	})
	reg.RegisterGaugeFunc("shard.director.last_rebalance_ms", func() int64 {
		t := d.LastRebalance()
		if t.IsZero() {
			return 0
		}
		return t.UnixMilli()
	})
}
