package shard

import (
	"fmt"
	"slices"
	"testing"
)

// jsHash32 mirrors Hash32 exactly the way the generated PAC JavaScript
// computes it: charCodeAt, ^ and << on signed 32-bit integers, + in
// float64 (exact here — the sum of six < 2^31 terms fits well inside the
// 53-bit mantissa), and a trailing >>> 0. If this mirror and Hash32 ever
// disagree, a real browser would route users to different shards than
// the simulator does.
func jsHash32(s string) uint32 {
	var h int64 = 2166136261
	for i := 0; i < len(s); i++ {
		// JS: h = h ^ s.charCodeAt(i) — operands coerced to int32.
		h = int64(int32(uint32(h)) ^ int32(s[i]))
		x := int32(uint32(h))
		// JS: (h + (h<<1) + (h<<4) + (h<<7) + (h<<8) + (h<<24)) >>> 0,
		// each shift an int32 op, the sum exact in float64.
		sum := int64(x) + int64(x<<1) + int64(x<<4) + int64(x<<7) + int64(x<<8) + int64(x<<24)
		h = int64(uint32(sum)) // >>> 0
	}
	return uint32(h)
}

func TestHash32MatchesJavaScriptSemantics(t *testing.T) {
	inputs := []string{
		"", "a", "10.3.0.2", "10.3.1.7|101.6.6.6:8118",
		"2001:db8::2|101.6.6.11:8118",
		"https://scholar.google.com:443/static/logo.png",
		"fe80::1%25en0", "255.255.255.255",
	}
	for i := 0; i < 200; i++ {
		inputs = append(inputs, fmt.Sprintf("10.3.%d.%d|101.6.6.%d:8118", i/200+2, i%200+1, 10+i%8))
	}
	for _, in := range inputs {
		if got, want := Hash32(in), jsHash32(in); got != want {
			t.Errorf("Hash32(%q) = %d, JS mirror = %d", in, got, want)
		}
	}
}

func TestHash32IsFNV1a(t *testing.T) {
	// Spot-check against the reference multiply form: the shift-add
	// decomposition must equal h * 16777619 mod 2^32.
	ref := func(s string) uint32 {
		h := uint32(2166136261)
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
		return h
	}
	for _, in := range []string{"", "a", "foobar", "10.3.0.2|x"} {
		if Hash32(in) != ref(in) {
			t.Errorf("Hash32(%q) = %d, FNV-1a reference = %d", in, Hash32(in), ref(in))
		}
	}
}

func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("101.6.6.%d:8118", 10+i)
	}
	return names
}

func TestOwnerIsStableAndBalanced(t *testing.T) {
	r := NewRing(shardNames(4))
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("https://scholar.google.com:443/doc/%d", i)
		o1, o2 := r.Owner(key), r.Owner(key)
		if o1 != o2 || o1 == "" {
			t.Fatalf("Owner(%q) unstable: %q then %q", key, o1, o2)
		}
		counts[o1]++
	}
	for _, n := range r.Names() {
		if counts[n] < 400/4/3 {
			t.Errorf("shard %s owns only %d/400 keys — rendezvous spread collapsed: %v", n, counts[n], counts)
		}
	}
}

// TestDeathRemapsOnlyTheDeadShardsKeys is the rendezvous property the
// cache tier depends on: marking one shard down must not move any key
// whose owner survives.
func TestDeathRemapsOnlyTheDeadShardsKeys(t *testing.T) {
	r := NewRing(shardNames(4))
	keys := make([]string, 500)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		before[i] = r.Owner(keys[i])
	}
	victim := r.Names()[1]
	r.MarkDown(victim)
	moved, orphans := 0, 0
	for i, k := range keys {
		after := r.Owner(k)
		if after == victim {
			t.Fatalf("key %q still owned by the dead shard", k)
		}
		if before[i] != after {
			moved++
			if before[i] != victim {
				t.Errorf("key %q moved from live shard %s to %s", k, before[i], after)
			}
		}
		if before[i] == victim {
			orphans++
		}
	}
	if moved != orphans {
		t.Errorf("%d keys moved, but the dead shard owned %d", moved, orphans)
	}
	r.MarkUp(victim)
	for i, k := range keys {
		if r.Owner(k) != before[i] {
			t.Errorf("key %q did not return to %s after MarkUp", k, before[i])
		}
	}
}

func TestRehashOnDeathOff(t *testing.T) {
	r := NewRing(shardNames(3))
	r.SetRehashOnDeath(false)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	before := make(map[string]string)
	for _, k := range keys {
		before[k] = r.Owner(k)
	}
	r.MarkDown(r.Names()[0])
	for _, k := range keys {
		if r.Owner(k) != before[k] {
			t.Errorf("ownership of %q changed with rehash-on-death off", k)
		}
	}
}

func TestAssignOrdersByScoreAndSkipsDown(t *testing.T) {
	r := NewRing(shardNames(4))
	user := "10.3.1.7"
	up := r.Up()
	order := Rank(user, up)
	if len(order) != 4 {
		t.Fatalf("Rank returned %d shards", len(order))
	}
	if !slices.Equal(up, r.Up()) {
		t.Errorf("Rank reordered its input: %v", up)
	}
	if order[0] != r.Owner(user) {
		t.Errorf("Rank[0] = %s, Owner = %s", order[0], r.Owner(user))
	}
	for i := 1; i < len(order); i++ {
		if Score(user, order[i-1]) < Score(user, order[i]) {
			t.Errorf("Rank not in descending score order at %d: %v", i, order)
		}
	}
	r.MarkDown(order[0])
	next := Rank(user, r.Up())
	if len(next) != 3 || next[0] != order[1] {
		t.Errorf("after death, Rank = %v (want %v promoted)", next, order[1])
	}
}
