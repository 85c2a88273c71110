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
// Coordinating health transitions across a tier (counting them, stamping
// them, republishing the live set into every PAC) is internal/tier's job;
// this package is only the hash and the Ring.
package shard

import (
	"sort"
	"sync"
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

// Rank returns a copy of names in key's rendezvous preference order:
// highest Score first, ties toward the lexicographically smaller name.
// Over a Ring's live shards its first element is the Owner and the rest
// are the per-user failover list the PAC renders ("PROXY a; PROXY b;
// ..."), sorted exactly as the generated JavaScript sorts them.
func Rank(key string, names []string) []string {
	out := append([]string(nil), names...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := Score(key, out[i]), Score(key, out[j])
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
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
