package scholarcloud

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSimulationFacade(t *testing.T) {
	sim := NewSimulation(Options{Seed: 13})
	defer sim.Close()

	names := sim.MethodNames()
	want := []string{"native-vpn", "openvpn", "tor", "shadowsocks", "scholarcloud"}
	if len(names) != len(want) {
		t.Fatalf("methods = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("methods = %v, want %v", names, want)
		}
	}

	plt, err := sim.MeasurePLT("scholarcloud", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plt.FirstTime.Mean <= plt.Subsequent.Mean {
		t.Errorf("first PLT %v not above subsequent %v", plt.FirstTime.Mean, plt.Subsequent.Mean)
	}
	if plt.Subsequent.Mean <= 0 || plt.Subsequent.Mean > 5 {
		t.Errorf("subsequent PLT = %v s", plt.Subsequent.Mean)
	}

	rtt, err := sim.MeasureRTT("native-vpn", 4)
	if err != nil {
		t.Fatal(err)
	}
	if rtt.RTT.Mean < 0.1 || rtt.RTT.Mean > 0.4 {
		t.Errorf("VPN RTT = %v s", rtt.RTT.Mean)
	}

	if _, err := sim.MeasurePLR("direct-us", 2); err != nil {
		t.Fatal(err)
	}

	tr, err := sim.MeasureTraffic("scholarcloud", 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BytesPerAccess < 10*1024 || tr.BytesPerAccess > 40*1024 {
		t.Errorf("traffic = %v bytes/access", tr.BytesPerAccess)
	}
}

func TestSimulationUnknownMethod(t *testing.T) {
	sim := NewSimulation(Options{Seed: 13})
	defer sim.Close()
	_, err := sim.MeasurePLT("carrier-pigeon", 1, 1)
	var ue *UnknownMethodError
	if !errors.As(err, &ue) || ue.Method != "carrier-pigeon" {
		t.Errorf("err = %v", err)
	}
}

func TestSimulationScalabilityFacade(t *testing.T) {
	sim := NewSimulation(Options{Seed: 13})
	defer sim.Close()
	p, err := sim.MeasureScalability("scholarcloud", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Failed != 0 {
		t.Errorf("%d failed visits", p.Failed)
	}
	if p.PLT.Mean <= 0 {
		t.Errorf("PLT = %v", p.PLT.Mean)
	}
}

func TestSurveyFigure(t *testing.T) {
	out := SurveyFigure(1)
	if !strings.Contains(out, "371") || !strings.Contains(out, "Shadowsocks") {
		t.Errorf("survey figure = %q", out)
	}
}

func TestNoBlindingOptionPropagates(t *testing.T) {
	sim := NewSimulation(Options{Seed: 13, NoBlinding: true})
	defer sim.Close()
	_, err := sim.MeasurePLT("scholarcloud", 1, 1)
	if err == nil {
		t.Error("unblinded simulation should fail against the keyword filter")
	}
}

func TestRotateBlindingFacade(t *testing.T) {
	sim := NewSimulation(Options{Seed: 13})
	defer sim.Close()
	sim.RotateBlinding(4)
	if _, err := sim.MeasurePLT("scholarcloud", 1, 1); err != nil {
		t.Fatalf("post-rotation PLT failed: %v", err)
	}
}

func TestSSKeepAliveOption(t *testing.T) {
	longKA := NewSimulation(Options{Seed: 13, SSKeepAlive: 10 * time.Minute})
	defer longKA.Close()
	longRes, err := longKA.MeasurePLT("shadowsocks", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	std := NewSimulation(Options{Seed: 13})
	defer std.Close()
	stdRes, err := std.MeasurePLT("shadowsocks", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With a long keep-alive, subsequent visits skip re-authentication.
	if longRes.Subsequent.Mean >= stdRes.Subsequent.Mean {
		t.Errorf("long keep-alive PLT %v not below default %v", longRes.Subsequent.Mean, stdRes.Subsequent.Mean)
	}
}

func TestTransportsFacade(t *testing.T) {
	sim := NewSimulation(Options{Seed: 13, Transports: &TransportOptions{Resilience: true}})
	defer sim.Close()

	names := TransportNames()
	if len(names) != 3 || names[0] != "blinded" {
		t.Fatalf("transport names = %v", names)
	}
	stages := TransportStages()
	if len(stages) == 0 || stages[0] != "open" {
		t.Fatalf("censor stages = %v", stages)
	}

	r, err := sim.MeasureTransports("open", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.FinalRung != names[0] {
		t.Errorf("open-stage final rung = %q, want %q", r.FinalRung, names[0])
	}
	if r.Failed != 0 {
		t.Errorf("%d failed visits under an open censor", r.Failed)
	}
	if r.SuccessRate() < 1 {
		t.Errorf("success rate = %v", r.SuccessRate())
	}

	if _, err := sim.MeasureTransports("carpet-bomb", 1, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown censor stage") {
		t.Errorf("unknown stage err = %v", err)
	}
}

func TestMeasureTransportsNeedsOptions(t *testing.T) {
	sim := NewSimulation(Options{Seed: 13})
	defer sim.Close()
	if _, err := sim.MeasureTransports("open", 1, 1); err == nil {
		t.Error("MeasureTransports succeeded without a Transports block")
	}
}

func TestShardsFacade(t *testing.T) {
	sim := NewSimulation(Options{
		Seed:   13,
		Cache:  &CacheOptions{CapacityMB: 16},
		Shards: &ShardOptions{Count: 4, SiblingFetch: true, RehashOnDeath: true},
	})
	defer sim.Close()

	r, err := sim.MeasureShards(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards != 4 || r.Clients != 8 {
		t.Errorf("shards/clients = %d/%d, want 4/8", r.Shards, r.Clients)
	}
	if r.Failed != 0 {
		t.Errorf("%d failed visits on a healthy tier", r.Failed)
	}
	if r.SiblingFetches == 0 {
		t.Error("no sibling fetches recorded — cache peering inactive")
	}
	if r.PerUserUSD <= 0 {
		t.Errorf("per-user cost = %v", r.PerUserUSD)
	}
	if len(r.Obs.Counters) == 0 {
		t.Error("result carries no observability delta")
	}
}

func TestShardKillFacade(t *testing.T) {
	sim := NewSimulation(Options{
		Seed:   13,
		Cache:  &CacheOptions{CapacityMB: 16},
		Faults: &FaultOptions{Scenario: FaultScenarios()[0], Resilience: true},
		Shards: &ShardOptions{Count: 2, SiblingFetch: true, RehashOnDeath: true},
	})
	defer sim.Close()

	r, err := sim.MeasureShardKill(6, 2, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Victim != 1 || r.Shards != 2 {
		t.Errorf("victim/shards = %d/%d, want 1/2", r.Victim, r.Shards)
	}
	if r.VisitsAfter == 0 {
		t.Error("no visits after the seizure")
	}
	if r.SuccessAfter() < 0.99 {
		t.Errorf("post-seizure success = %v, want >= 0.99", r.SuccessAfter())
	}
}

func TestMeasureShardKillNeedsOptions(t *testing.T) {
	sim := NewSimulation(Options{Seed: 13, Cache: &CacheOptions{CapacityMB: 16}})
	defer sim.Close()
	if _, err := sim.MeasureShardKill(1, 1, 1, time.Second); err == nil {
		t.Error("MeasureShardKill succeeded without a Shards block")
	}
}

func TestShardOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"count below two", Options{Cache: &CacheOptions{CapacityMB: 16}, Shards: &ShardOptions{Count: 1}},
			"ShardOptions.Count must be at least 2"},
		{"shards without cache", Options{Shards: &ShardOptions{Count: 2}},
			"Shards requires a Cache block"},
		{"shards with fleet", Options{Cache: &CacheOptions{CapacityMB: 16}, Fleet: &FleetOptions{Remotes: 2}, Shards: &ShardOptions{Count: 2}},
			"Shards and Fleet are mutually exclusive"},
		{"shards with transports", Options{Cache: &CacheOptions{CapacityMB: 16}, Transports: &TransportOptions{}, Shards: &ShardOptions{Count: 2}},
			"Shards and Transports are mutually exclusive"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	ok := Options{Cache: &CacheOptions{CapacityMB: 16}, Shards: &ShardOptions{Count: 2, SiblingFetch: true, RehashOnDeath: true}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid shard options rejected: %v", err)
	}
}

func TestAutoscaleFacade(t *testing.T) {
	sim := NewSimulation(Options{
		Seed:   13,
		Cache:  &CacheOptions{CapacityMB: 16},
		Shards: &ShardOptions{Count: 3, SiblingFetch: true, RehashOnDeath: true},
		Autoscale: &AutoscaleOptions{
			InitialShards: 1,
			Interval:      15 * time.Second,
			// One shard targets ~12 concurrent clients at the 20 s visit
			// cadence; the 24-client surge then wants two shards.
			Policy: AutoscalePolicy{
				TargetUtilization:   0.75,
				ShardSessionsPerSec: 0.8,
				UpAfter:             2,
				DownAfter:           3,
				UpCooldown:          30 * time.Second,
				DownCooldown:        45 * time.Second,
			},
		},
	})
	defer sim.Close()

	phases := []LoadPhase{
		{Name: "calm", Clients: 4, Rounds: 2},
		{Name: "surge", Clients: 24, Rounds: 4},
	}
	r, err := sim.MeasureAutoscale("surge", phases)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "autoscaled" || r.Schedule != "surge" {
		t.Errorf("mode/schedule = %q/%q, want autoscaled/surge", r.Mode, r.Schedule)
	}
	if r.Visits != 4*2+24*4 {
		t.Errorf("visits = %d, want %d", r.Visits, 4*2+24*4)
	}
	if r.Failed != 0 {
		t.Errorf("%d failed visits on a healthy tier", r.Failed)
	}
	if r.ScaleUps == 0 || r.PeakShards <= 1 {
		t.Errorf("surge produced no scale-up (ups=%d peak=%d)", r.ScaleUps, r.PeakShards)
	}
	if r.MeanShards <= 0 || r.MeanShards > 3 {
		t.Errorf("mean shards = %v, want in (0, 3]", r.MeanShards)
	}
	if r.PerUserUSD <= 0 {
		t.Errorf("per-user cost = %v", r.PerUserUSD)
	}
	if len(r.Obs.Counters) == 0 {
		t.Error("result carries no observability delta")
	}
	if r.Obs.Gauges["autoscale.active_shards"] == 0 {
		t.Error("obs delta carries no autoscale.active_shards gauge")
	}
}

func TestAutoscaleOptionsValidation(t *testing.T) {
	shards := func() *ShardOptions {
		return &ShardOptions{Count: 3, SiblingFetch: true, RehashOnDeath: true}
	}
	cache := &CacheOptions{CapacityMB: 16}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"autoscale without shards", Options{Cache: cache, Autoscale: &AutoscaleOptions{InitialShards: 1}},
			"Autoscale requires a Shards block"},
		{"initial below one", Options{Cache: cache, Shards: shards(), Autoscale: &AutoscaleOptions{}},
			"InitialShards must be at least 1"},
		{"initial above count", Options{Cache: cache, Shards: shards(), Autoscale: &AutoscaleOptions{InitialShards: 5}},
			"exceeds Shards.Count"},
		{"no sibling fetch", Options{Cache: cache,
			Shards:    &ShardOptions{Count: 3, RehashOnDeath: true},
			Autoscale: &AutoscaleOptions{InitialShards: 1}},
			"requires Shards.SiblingFetch"},
		{"bad policy", Options{Cache: cache, Shards: shards(),
			Autoscale: &AutoscaleOptions{InitialShards: 1, Policy: AutoscalePolicy{TargetUtilization: 2}}},
			"AutoscaleOptions.Policy"},
		{"negative interval", Options{Cache: cache, Shards: shards(),
			Autoscale: &AutoscaleOptions{InitialShards: 1, Interval: -time.Second}},
			"Interval is negative"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	ok := Options{Cache: cache, Shards: shards(), Autoscale: &AutoscaleOptions{InitialShards: 2}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid autoscale options rejected: %v", err)
	}
}

func TestCensorFacade(t *testing.T) {
	sim := NewSimulation(Options{
		Seed:   2017,
		Censor: &CensorOptions{Profile: "regional", Resilience: true},
	})
	defer sim.Close()

	profiles := CensorProfiles()
	if len(profiles) != 3 || profiles[0] != "scripted" {
		t.Fatalf("censor profiles = %v", profiles)
	}

	r, err := sim.MeasureCensorship(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile != "regional" || len(r.Borders) != 2 {
		t.Fatalf("result = profile %q, %d borders", r.Profile, len(r.Borders))
	}
	if r.Visits() == 0 || r.SuccessRate() <= 0 {
		t.Errorf("visits = %d, success = %v", r.Visits(), r.SuccessRate())
	}
	for _, b := range r.Borders {
		if b.FinalRung == "" || len(b.Survival) == 0 {
			t.Errorf("border %s missing rung/survival: %+v", b.Border, b)
		}
	}
}

func TestCensorStageOption(t *testing.T) {
	sim := NewSimulation(Options{
		Seed:       13,
		Transports: &TransportOptions{Resilience: true},
		Censor:     &CensorOptions{Stage: "open"},
	})
	defer sim.Close()
	// An empty stage argument selects the configured Censor.Stage.
	r, err := sim.MeasureTransports("", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stage != "open" {
		t.Errorf("stage = %q, want the configured %q", r.Stage, "open")
	}
}

func TestCensorOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"empty block", Options{Censor: &CensorOptions{}}, "CensorOptions is empty"},
		{"two modes", Options{Censor: &CensorOptions{Profile: "adaptive", Episode: "throttle"}}, "mutually exclusive"},
		{"unknown profile", Options{Censor: &CensorOptions{Profile: "panopticon"}}, "unknown censor profile"},
		{"unknown episode", Options{Censor: &CensorOptions{Episode: "brownout"}}, "unknown GFW episode"},
		{"stage without transports", Options{Censor: &CensorOptions{Stage: "open"}}, "requires a Transports block"},
		{"profile with transports", Options{
			Censor:     &CensorOptions{Profile: "adaptive"},
			Transports: &TransportOptions{},
		}, "mutually exclusive"},
		{"episode with faults", Options{
			Censor: &CensorOptions{Episode: "reset-storm"},
			Faults: &FaultOptions{Scenario: "loss-burst"},
		}, "mutually exclusive"},
		{"episode as fault scenario", Options{
			Faults: &FaultOptions{Scenario: "reset-storm"},
		}, "Options.Censor.Episode"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestCensorEpisodeFacade(t *testing.T) {
	sim := NewSimulation(Options{
		Seed:   13,
		Censor: &CensorOptions{Episode: "reset-storm", Resilience: true},
	})
	defer sim.Close()
	r, err := sim.MeasureFaults(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "reset-storm" {
		t.Errorf("scenario = %q, want reset-storm", r.Scenario)
	}
	if !r.Resilience {
		t.Error("resilience flag did not propagate from the Censor block")
	}
}
