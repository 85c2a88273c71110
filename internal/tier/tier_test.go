package tier

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"scholarcloud/internal/autoscale"
	"scholarcloud/internal/cache"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/shard"
)

// transfer is one sibling request the harness served: shard `asker`
// dialed shard `peer` for key.
type transfer struct {
	asker, peer int
	key         string
}

// harness is a tier of in-memory caches whose Dial funcs connect over
// net.Pipe to a stand-in for the sibling path of core.Domestic: the
// dialed shard answers from its own cache via FetchLocal, and its border
// fetcher records the key and refuses. No listeners, no simulated clock.
type harness struct {
	t       *testing.T
	members []Member
	tier    *Tier

	mu        sync.Mutex
	transfers []transfer
	border    []string
	published [][]string
	serving   sync.WaitGroup
}

func newHarness(t *testing.T, n int) *harness {
	h := &harness{t: t}
	for i := 0; i < n; i++ {
		cc, err := cache.New(netx.RealEnv(), cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h.members = append(h.members, Member{
			Addr:  fmt.Sprintf("shard-%d.example:8118", i),
			Cache: cc,
			Dial:  h.dialFrom(i),
		})
	}
	h.tier = New(h.members, time.Now, func(up []string) {
		h.mu.Lock()
		h.published = append(h.published, up)
		h.mu.Unlock()
	})
	t.Cleanup(h.serving.Wait)
	return h
}

func (h *harness) dialFrom(asker int) func(network, address string) (net.Conn, error) {
	return func(_, address string) (net.Conn, error) {
		peer := h.indexOf(address)
		if peer < 0 {
			return nil, fmt.Errorf("no shard listens on %s", address)
		}
		client, server := net.Pipe()
		h.serving.Add(1)
		go func() {
			defer h.serving.Done()
			defer server.Close()
			req, err := httpsim.ReadRequest(bufio.NewReader(server))
			if err != nil {
				return
			}
			h.mu.Lock()
			h.transfers = append(h.transfers, transfer{asker, peer, req.Target})
			h.mu.Unlock()
			resp, _, err := h.members[peer].Cache.FetchLocal(req.Target, func(map[string]string) (*httpsim.Response, error) {
				h.mu.Lock()
				h.border = append(h.border, req.Target)
				h.mu.Unlock()
				return nil, errors.New("harness: the border is closed")
			})
			if err != nil {
				resp = httpsim.NewResponse(502, nil)
			}
			resp.Encode(server)
		}()
		return client, nil
	}
}

func (h *harness) indexOf(addr string) int {
	return slices.IndexFunc(h.members, func(m Member) bool { return m.Addr == addr })
}

// seed stores key at shard i as a fresh cacheable object.
func (h *harness) seed(i int, key string) {
	h.t.Helper()
	_, _, err := h.members[i].Cache.FetchLocal(key, func(map[string]string) (*httpsim.Response, error) {
		return httpsim.NewResponse(200, []byte("body of "+key)), nil
	})
	if err != nil {
		h.t.Fatal(err)
	}
}

// seedAtOwners stores n keys, each at the shard the live ring assigns it,
// and returns them.
func (h *harness) seedAtOwners(n int) []string {
	keys := make([]string, n)
	for k := range keys {
		keys[k] = fmt.Sprintf("http://origin.example:80/paper/%d", k)
		h.seed(h.indexOf(h.tier.Ring().Owner(keys[k])), keys[k])
	}
	return keys
}

func (h *harness) addrs(idx ...int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = h.members[j].Addr
	}
	return out
}

func (h *harness) park(initial int) *autoscale.Controller {
	h.t.Helper()
	ctl, err := h.tier.Autoscale(initial, autoscale.Policy{}, func() (float64, time.Duration) { return 0, 0 })
	if err != nil {
		h.t.Fatal(err)
	}
	return ctl
}

func TestAdmitPreseedsOnlyTheJoinersKeysWithoutBorder(t *testing.T) {
	h := newHarness(t, 3)
	h.tier.Peer()
	h.park(2)
	if got, want := h.tier.Ring().Up(), h.addrs(0, 1); !slices.Equal(got, want) {
		t.Fatalf("live set after parking = %v, want %v", got, want)
	}
	keys := h.seedAtOwners(60)

	joiner := h.members[2].Addr
	full := shard.NewRing(h.addrs(0, 1, 2))
	var want []string
	for _, k := range keys {
		if full.Owner(k) == joiner {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if len(want) == 0 || len(want) == len(keys) {
		t.Fatalf("degenerate key split: joiner would own %d of %d", len(want), len(keys))
	}

	if got := h.tier.Admit(2); got != len(want) {
		t.Errorf("Admit pre-seeded %d keys, want %d", got, len(want))
	}
	if got := h.members[2].Cache.Keys(); !slices.Equal(got, want) {
		t.Errorf("joiner holds %v, want exactly the keys the candidate ring assigns it: %v", got, want)
	}
	if len(h.border) != 0 {
		t.Errorf("warm-up invoked the border fetcher for %v", h.border)
	}
	if len(h.transfers) != len(want) {
		t.Errorf("%d sibling transfers, want one per pre-seeded key (%d)", len(h.transfers), len(want))
	}
	for _, tr := range h.transfers {
		if tr.asker != 2 || tr.peer == 2 {
			t.Errorf("transfer %+v: only the joiner may pull, and only from a live owner", tr)
		}
	}
	if got, want := h.published[len(h.published)-1], h.addrs(0, 1, 2); !slices.Equal(got, want) {
		t.Errorf("published live set after admit = %v, want %v", got, want)
	}
	if h.tier.Admit(2) != 0 {
		t.Error("admitting an already-active shard moved keys")
	}
}

func TestRetireHandsEachKeyToItsNewOwner(t *testing.T) {
	h := newHarness(t, 3)
	h.tier.Peer()
	h.seedAtOwners(60)
	leaverKeys := h.members[2].Cache.Keys()
	if len(leaverKeys) == 0 {
		t.Fatal("shard 2 owns none of the seeded keys")
	}

	if got := h.tier.Retire(2); got != len(leaverKeys) {
		t.Errorf("Retire handed off %d keys, want all %d the leaver held", got, len(leaverKeys))
	}
	if !h.tier.Ring().IsDown(h.members[2].Addr) {
		t.Error("leaver still in the ring")
	}
	if got, want := h.published[len(h.published)-1], h.addrs(0, 1); !slices.Equal(got, want) {
		t.Errorf("published live set after retire = %v, want %v", got, want)
	}
	if len(h.border) != 0 {
		t.Errorf("drain invoked the border fetcher for %v", h.border)
	}
	if len(h.transfers) != len(leaverKeys) {
		t.Fatalf("%d sibling transfers, want one per leaver key (%d)", len(h.transfers), len(leaverKeys))
	}
	for _, tr := range h.transfers {
		owner := h.tier.Ring().Owner(tr.key)
		if tr.peer != 2 || h.members[tr.asker].Addr != owner {
			t.Errorf("transfer %+v: want the key's new owner %s pulling from the leaver", tr, owner)
		}
		if !slices.Contains(h.members[tr.asker].Cache.Keys(), tr.key) {
			t.Errorf("new owner %s does not hold %s after the drain", owner, tr.key)
		}
	}
	if h.tier.Retire(2) != 0 {
		t.Error("retiring an already-retired shard moved keys")
	}
}

func TestScaleGrowsLowestStandbyFirstShrinksHighestActiveFirst(t *testing.T) {
	h := newHarness(t, 4)
	h.tier.Peer()
	h.park(1)
	for _, step := range []struct {
		to   int
		want []int
	}{
		{3, []int{0, 1, 2}},
		{4, []int{0, 1, 2, 3}},
		{9, []int{0, 1, 2, 3}}, // no standbys left
		{2, []int{0, 1}},
		{0, []int{0}}, // shard 0 never retires
	} {
		if err := h.tier.Scale(len(h.tier.Ring().Up()), step.to); err != nil {
			t.Fatal(err)
		}
		if got, want := h.tier.Ring().Up(), h.addrs(step.want...); !slices.Equal(got, want) {
			t.Errorf("Scale(to=%d): live set %v, want %v", step.to, got, want)
		}
	}

	// A gap in the active set fills from the bottom.
	h.tier.Scale(1, 3)
	h.tier.MarkDown(h.members[1].Addr)
	h.tier.Scale(2, 3)
	if got, want := h.tier.Ring().Up(), h.addrs(0, 1, 2); !slices.Equal(got, want) {
		t.Errorf("regrow after takedown: live set %v, want %v", got, want)
	}
}

func TestUnpeeredTierAdmitsAndRetiresWithZeroTransfers(t *testing.T) {
	h := newHarness(t, 3)
	h.park(2)
	for i := range h.members {
		for k := 0; k < 10; k++ {
			h.seed(i, fmt.Sprintf("http://origin.example:80/s%d/%d", i, k))
		}
	}
	if got := h.tier.Admit(2); got != 0 {
		t.Errorf("un-peered Admit pre-seeded %d keys, want 0", got)
	}
	if got := h.tier.Retire(1); got != 0 {
		t.Errorf("un-peered Retire handed off %d keys, want 0", got)
	}
	if got, want := h.tier.Ring().Up(), h.addrs(0, 2); !slices.Equal(got, want) {
		t.Errorf("live set = %v, want %v (membership still changes)", got, want)
	}
	if len(h.transfers) != 0 || len(h.border) != 0 {
		t.Errorf("un-peered tier moved keys: transfers %v, border %v", h.transfers, h.border)
	}
}

// TestAdmitRetireRejectOutOfRangeIndex: both hand-written predecessors
// indexed their shard list before (or without) checking the index.
func TestAdmitRetireRejectOutOfRangeIndex(t *testing.T) {
	h := newHarness(t, 3)
	h.tier.Peer()
	h.park(2)
	h.seedAtOwners(20)
	before := h.tier.Ring().Up()
	for _, tc := range []struct {
		name string
		op   func(int) int
		i    int
	}{
		{"Admit negative", h.tier.Admit, -1},
		{"Admit len", h.tier.Admit, 3},
		{"Retire negative", h.tier.Retire, -1},
		{"Retire shard 0", h.tier.Retire, 0},
		{"Retire len", h.tier.Retire, 3},
	} {
		if got := tc.op(tc.i); got != 0 {
			t.Errorf("%s: moved %d keys, want 0", tc.name, got)
		}
	}
	if got := h.tier.Ring().Up(); !slices.Equal(got, before) {
		t.Errorf("live set changed to %v, want %v", got, before)
	}
	if len(h.transfers) != 0 {
		t.Errorf("rejected calls still transferred %v", h.transfers)
	}
}

func TestAutoscaleDefaultsBoundsAndSamplesTheTier(t *testing.T) {
	h := newHarness(t, 3)
	h.tier.Peer()
	for _, bad := range []int{0, -1, 4} {
		if _, err := h.tier.Autoscale(bad, autoscale.Policy{}, nil); err == nil {
			t.Errorf("Autoscale(initial=%d) on a 3-shard tier did not fail", bad)
		}
	}
	if got := len(h.tier.Ring().Up()); got != 3 {
		t.Fatalf("a refused Autoscale parked shards: %d live, want 3", got)
	}

	// One shard serves 5 sessions/sec at target, so 12 wants 3 shards.
	ctl, err := h.tier.Autoscale(1,
		autoscale.Policy{ShardSessionsPerSec: 10, TargetUtilization: 0.5, UpAfter: 1},
		func() (float64, time.Duration) { return 12, 0 })
	if err != nil {
		t.Fatal(err)
	}
	if p := ctl.Policy(); p.MinShards != 1 || p.MaxShards != 3 {
		t.Errorf("policy bounds = [%d, %d], want [initial=1, tier size=3]", p.MinShards, p.MaxShards)
	}
	d := ctl.Step(time.Now())
	if d == nil || d.From != 1 || d.To != 3 || d.Err != nil {
		t.Fatalf("decision = %+v, want a clean 1->3 scale-up sampled from the ring", d)
	}
	if got := len(h.tier.Ring().Up()); got != 3 {
		t.Errorf("%d shards live after the decision, want 3", got)
	}
}
