package experiments

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"scholarcloud/internal/carrier"
	"scholarcloud/internal/censor"
	"scholarcloud/internal/core"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/gfw"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/pac"
)

// censorClients is the per-border concurrent-client load of the censor
// figure. Modest on purpose: every border runs its own full deployment,
// and a fingerprint crackdown drives its cohort through the DNS tunnel.
const censorClients = 6

// Region is one border's deployment in a multi-border censor world: its
// own client zone and border link, its own firewall with independent
// policy state, and its own domestic proxy with a full carrier
// escalation ladder — the regional unevenness of §2, built instead of
// assumed.
type Region struct {
	Name   string
	Zone   *netsim.Zone
	Border *netsim.LinkHandle
	GFW    *gfw.GFW
	Host   *netsim.Host

	Domestic  *core.Domestic
	Whitelist *pac.Config
	Ladder    *carrier.Ladder
	Fleet     *fleet.Pool
	// Controller is the border's adaptive escalation loop (nil for
	// scripted or static borders).
	Controller *censor.Controller

	policy censor.BorderPolicy
	index  int

	mu      sync.Mutex
	armed   bool
	armedAt time.Time
	events  []censor.Event
}

// record appends a timeline event stamped with the virtual-time offset
// since arming. Pre-arm activity (warm-up dials) is not censor-driven
// and is dropped.
func (r *Region) record(now time.Time, e censor.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.armed {
		return
	}
	e.At = now.Sub(r.armedAt)
	e.Border = r.Name
	r.events = append(r.events, e)
}

// Timeline merges the region's recorded events (stages, transport
// rotations) with its controller's escalation log, ordered by onset.
func (r *Region) Timeline() []censor.Event {
	r.mu.Lock()
	out := append([]censor.Event(nil), r.events...)
	r.mu.Unlock()
	if r.Controller != nil {
		out = append(out, r.Controller.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Level names the region's current escalation rung ("static" for
// borders without an adaptive controller).
func (r *Region) Level() string {
	if r.Controller == nil {
		return "static"
	}
	return r.Controller.Level().String()
}

// regionSalt decorrelates region i's seed streams from the classic
// world's and from its sibling regions'.
func regionSalt(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }

// regionIP addresses region i's hosts: 10.(40+i).b.c.
func regionIP(i, b, c int) string { return fmt.Sprintf("10.%d.%d.%d", 40+i, b, c) }

// startCensorRegions builds one Region per border of Cfg.Censor. Shared
// US-side cover infrastructure (gateway pool, tunnel resolvers, the
// primary remote) is built once; everything Chinese-side is per-region.
func (w *World) startCensorRegions() {
	primary := fmt.Sprintf("%s:%d", ipSCRemote, portSCRemote)
	for i, bp := range w.Cfg.Censor.Borders {
		bp := bp
		r := &Region{Name: bp.Name, policy: bp, index: i}

		// --- The border: a client zone, its link, its firewall ---------
		r.Zone = w.Net.AddZone("region-" + bp.Name)
		r.Border = w.Net.Connect(r.Zone, w.US, netsim.LinkConfig{
			Delay:     borderDelay,
			Bandwidth: 10 * accessBW,
			BaseLoss:  borderLoss,
			Jitter:    borderJitter,
		})
		prober := w.Net.AddHost("censor-prober-"+bp.Name, regionIP(i, 255, 1), r.Zone, accessLink())
		r.GFW = gfw.New(gfw.Config{
			Network:             w.Net,
			Zone:                r.Zone,
			Clock:               w.Env.Clock,
			Spawn:               w.Env.Spawn,
			BlockedDomains:      []string{"google.com", "facebook.com", "twitter.com", "youtube.com"},
			BlockedIPs:          []string{ipScholar, ipAccounts},
			PoisonIP:            "37.61.54.158",
			MeekFronts:          []string{meekFrontSNI},
			MeekLossRate:        gfwMeekLoss,
			ShadowsocksLossRate: gfwShadowsocksLoss,
			ProbeDelay:          gfwProbeDelay,
			ProbeFrom:           prober,
			Seed:                w.Cfg.Seed ^ 0x6F57AA11 ^ regionSalt(i),
		})
		r.Border.SetInspector(r.GFW)

		// --- The region's domestic proxy with the full ladder ----------
		r.Host = w.Net.AddHost("sc-censor-"+bp.Name, regionIP(i, 0, 2), r.Zone, accessLink())
		r.Whitelist = pac.New(
			fmt.Sprintf("%s:%d", r.Host.IP(), portProxy),
			[]string{"scholar.google.com", "accounts.google.com"},
		)
		d := &core.Domestic{
			Env:          w.Env,
			Secret:       w.scSecret,
			Epoch:        w.Cfg.BlindingEpoch,
			Whitelist:    r.Whitelist,
			VerifyRemote: w.CA.Verifier(),
			RemoteName:   "remote.scholarcloud.example",
			GatewayFetch: true,
		}
		if w.Cfg.Resilience {
			// Deeper retry budget than the single-border worlds: a visit
			// caught mid-crackdown must outlive the ladder's rotation, and
			// early attempts on a freshly fingerprinted rung fail in
			// milliseconds.
			d.Resil = &core.Resilience{
				Seed:    w.Cfg.Seed ^ 0x4E51AE ^ regionSalt(i),
				Retries: censor.SurvivalRetries,
			}
		}
		wrap := d.WrapCarrier
		rungs := []carrier.Transport{
			carrier.NewBlinded(
				func() (net.Conn, error) { return r.Host.DialTCP(primary) }, wrap),
			w.newRendezvousRung(r.Host, wrap, regionSalt(i)),
			w.newTunnelRung(r.Host, wrap, regionSalt(i)),
		}
		// No registry: the shared fleet.*/carrier.ladder.* names would sum
		// across borders (the per-border view is published below).
		pool, ladder, err := d.AssembleBorder(core.Border{
			Rungs: rungs,
			Ladder: carrier.LadderConfig{
				// Rotate on a hair trigger and probe back down lazily: during
				// an adaptive crackdown a recovery probe's handshake is too
				// short for the classifier, so an eager prober would keep
				// stepping the cohort back onto a fingerprinted rung.
				TripAfter:     censor.SurvivalTripAfter,
				ProbeInterval: censor.SurvivalProbeInterval,
				OnSwitch: func(from, to, reason string) {
					r.record(w.Env.Clock.Now(), censor.Event{
						Kind: "transport", From: from, To: to, Reason: reason,
					})
				},
			},
			Pool: fleet.Config{
				ReadmitBackoff: fleetReadmitBackoff,
				Seed:           w.Cfg.Seed ^ 0x7EA45 ^ regionSalt(i),
			},
		}, nil)
		if err != nil {
			panic(err)
		}
		r.Fleet, r.Ladder = pool, ladder
		r.Domestic = d

		ln, err := r.Host.Listen("tcp", fmt.Sprintf(":%d", portProxy))
		if err != nil {
			panic(err)
		}
		proxy := d.Proxy()
		w.Env.Spawn.Go(func() { proxy.Serve(ln) })

		// --- The adaptive controller -----------------------------------
		if bp.Adaptive != nil {
			ctl, err := censor.NewController(censor.Config{
				Border: bp.Name,
				Policy: *bp.Adaptive,
				Base:   bp.Base,
				Sample: func() censor.Sample { return regionSample(r.GFW, r.Controller.Policy().Suspicious) },
				Apply:  r.GFW.Apply,
			})
			if err != nil {
				panic(err)
			}
			r.Controller = ctl
		}

		// --- Per-border observability ----------------------------------
		// The shared gfw.* names would sum across borders; each border
		// publishes its own prefixed view instead.
		pfx := fmt.Sprintf("censor.%s.", bp.Name)
		g := r.GFW
		w.Obs.RegisterFunc(pfx+"flows", func() int64 { return g.Stats().FlowsTracked })
		w.Obs.RegisterFunc(pfx+"class_resets", func() int64 { return g.Stats().ClassResets })
		w.Obs.RegisterFunc(pfx+"storm_resets", func() int64 { return g.Stats().StormResets })
		w.Obs.RegisterFunc(pfx+"ip_blocked", func() int64 { return g.Stats().IPBlocked })
		w.Obs.RegisterFunc(pfx+"servers_confirmed", func() int64 { return g.Stats().ServersConfirmed })
		w.Obs.RegisterFunc(pfx+"ladder_escalations", r.Ladder.Escalations)
		w.Obs.RegisterFunc(pfx+"ladder_recoveries", r.Ladder.Recoveries)
		if r.Controller != nil {
			r.Controller.Instrument(w.Obs, pfx)
		}
		d.Instrument(w.Obs)

		w.Regions = append(w.Regions, r)
	}
}

// describePosture summarizes a scripted posture for the timeline.
func describePosture(p gfw.Policy) string {
	var parts []string
	if p.ResetStorm > 0 {
		parts = append(parts, fmt.Sprintf("storm=%.2g", p.ResetStorm))
	}
	if p.Throttle > 0 {
		parts = append(parts, fmt.Sprintf("throttle=%.2g", p.Throttle))
	}
	if n := len(p.BlockClasses); n > 0 {
		parts = append(parts, fmt.Sprintf("%d classes blocked", n))
	}
	if n := len(p.BlockIPs); n > 0 {
		parts = append(parts, fmt.Sprintf("%d IPs blackholed", n))
	}
	if p.ScrutinizeCleartext {
		parts = append(parts, "scrutinize-cleartext")
	}
	if len(parts) == 0 {
		return "open"
	}
	return strings.Join(parts, " ")
}

// regionSample reads one border's firewall into a controller Sample.
func regionSample(g *gfw.GFW, suspicious []gfw.Class) censor.Sample {
	counts := g.ClassCounts()
	sus := make(map[gfw.Class]int64, len(suspicious))
	for _, cl := range suspicious {
		if n := counts[cl]; n > 0 {
			sus[cl] = n
		}
	}
	return censor.Sample{
		Suspicious: sus,
		Confirmed:  censor.SortedConfirmed(g.ConfirmedServers()),
	}
}

// armCensor applies every border's base posture and starts its scripted
// stages and adaptive controller on the virtual clock. Must run inside a
// Run window; idempotent. Each controller starts with a seed-derived
// phase offset, so identical-policy borders tick at independent but
// reproducible instants.
func (w *World) armCensor() {
	if w.censorArmed {
		return
	}
	w.censorArmed = true
	now := w.Env.Clock.Now()
	for _, r := range w.Regions {
		r := r
		r.mu.Lock()
		r.armed = true
		r.armedAt = now
		r.mu.Unlock()
		r.GFW.Apply(r.policy.Base)
		for si, st := range r.policy.Stages {
			si, st := si, st
			w.Env.Spawn.Go(func() {
				w.Env.Clock.Sleep(st.After)
				r.GFW.Apply(st.Posture)
				r.record(w.Env.Clock.Now(), censor.Event{
					Kind:   "stage",
					To:     fmt.Sprintf("stage-%d", si),
					Reason: describePosture(st.Posture),
				})
			})
		}
		if r.Controller != nil {
			phase := censor.Phase(w.Cfg.Seed, r.index, r.Controller.Policy().Interval)
			w.Env.Spawn.Go(func() { r.Controller.Run(w.Env, phase) })
		}
	}
}

// RungSurvival is one transport's share of a border's visits: how many
// page loads rode this rung while it was the ladder's active transport,
// and how many of those failed — the per-transport survival curve.
type RungSurvival struct {
	Rung   string
	Visits int
	Failed int
}

// SuccessRate is the fraction of this rung's visits that completed.
func (s RungSurvival) SuccessRate() float64 {
	if s.Visits == 0 {
		return 0
	}
	return 1 - float64(s.Failed)/float64(s.Visits)
}

// BorderOutcome is one border's cell of the censor figure.
type BorderOutcome struct {
	Border string
	// FinalLevel is the adaptive controller's final escalation rung
	// ("static" for scripted/lenient borders).
	FinalLevel string
	// FinalRung is the ladder's active transport when the load completed.
	FinalRung string
	// Escalations and Recoveries count the border cohort's ladder moves.
	Escalations int64
	Recoveries  int64
	PLT         obs.Summary // seconds, successful visits only
	Visits      int
	Failed      int
	// Survival breaks the visits out per active transport, in ladder
	// order.
	Survival []RungSurvival
	// Timeline is the border's merged escalation history: scripted
	// stages, adaptive moves, blackholes, and transport rotations.
	Timeline []censor.Event
}

// SuccessRate is the fraction of the border's page loads that completed.
func (b *BorderOutcome) SuccessRate() float64 {
	if b.Visits == 0 {
		return 0
	}
	return 1 - float64(b.Failed)/float64(b.Visits)
}

// CensorPoint is one profile's result: every border measured under the
// same armed policy, in policy order.
type CensorPoint struct {
	Profile string
	// Clients is the per-border concurrent cohort size.
	Clients int
	Rounds  int
	Borders []BorderOutcome
}

// Visits is the whole-world page-load count, summed over borders.
func (p *CensorPoint) Visits() (n int) {
	for _, b := range p.Borders {
		n += b.Visits
	}
	return n
}

// Failed is the whole-world count of page loads that did not complete.
func (p *CensorPoint) Failed() (n int) {
	for _, b := range p.Borders {
		n += b.Failed
	}
	return n
}

// SuccessRate is the whole-world visit success fraction.
func (p *CensorPoint) SuccessRate() float64 {
	if p.Visits() == 0 {
		return 0
	}
	return 1 - float64(p.Failed())/float64(p.Visits())
}

// censorVisit is one page load's record inside a border cohort.
type censorVisit struct {
	region int
	rung   string
	plt    time.Duration
	failed bool
}

// newRegionClient reuses or creates client machine i of region r.
func (w *World) newRegionClient(r *Region, i int) *netsim.Host {
	ip := regionIP(r.index, 1, i+1)
	if h := w.Net.HostByIP(ip); h != nil {
		return h
	}
	return w.Net.AddHost(fmt.Sprintf("censor-%s-client-%d", r.Name, i),
		ip, r.Zone, accessLink())
}

// regionMethod builds a ScholarCloud client stack homed in region r.
func (w *World) regionMethod(r *Region, h *netsim.Host) *core.ClientStack {
	return &core.ClientStack{
		Env:          w.Env,
		Dial:         h.Dial,
		PAC:          r.Whitelist,
		Resolver:     w.resolverFor(h),
		GatewayHTTPS: true,
		ClientIP:     h.IP(),
	}
}

// MeasureCensorship arms the censor policy, then runs n concurrent
// clients per border for `rounds` visit rounds each and reports, per
// border, where the escalation war settled: the censor's final level,
// the cohort's final transport, per-transport survival, and the merged
// escalation timeline. The world must have been built with
// Config.Censor.
func (w *World) MeasureCensorship(n, rounds int) (*CensorPoint, error) {
	if len(w.Regions) == 0 {
		return nil, errors.New("experiments: world has no censor regions (set Config.Censor)")
	}
	cadence := transportsStressInterval
	var mu sync.Mutex
	var visits []censorVisit
	err := w.Run(func() error {
		w.armCensor()
		wg := w.Env.NewWaitGroup()
		for ri, r := range w.Regions {
			ri, r := ri, r
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				w.Env.Spawn.Go(func() {
					defer wg.Done()
					h := w.newRegionClient(r, i)
					method := w.regionMethod(r, h)
					defer method.Close()
					if err := prepare(method); err != nil {
						mu.Lock()
						visits = append(visits, censorVisit{region: ri, failed: true})
						mu.Unlock()
						return
					}
					browser := w.newBrowser(method)
					// Stagger arrivals: cohorts offset per region, clients
					// uniform across the cadence interval.
					offset := time.Duration(ri)*cadence/time.Duration(4*len(w.Regions)) +
						time.Duration(i)*cadence/time.Duration(n)
					w.Env.Clock.Sleep(offset)
					for round := 0; round < rounds; round++ {
						rung := r.Ladder.ActiveName()
						st := browser.Visit(scholarURL)
						mu.Lock()
						visits = append(visits, censorVisit{
							region: ri, rung: rung, plt: st.PLT, failed: st.Failed,
						})
						mu.Unlock()
						if sleep := cadence - st.PLT; sleep > 0 {
							w.Env.Clock.Sleep(sleep)
						}
					}
				})
			}
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return nil, err
	}

	point := &CensorPoint{Profile: w.Cfg.Censor.Name, Clients: n, Rounds: rounds}
	for ri, r := range w.Regions {
		out := BorderOutcome{
			Border:      r.Name,
			FinalLevel:  r.Level(),
			FinalRung:   r.Ladder.ActiveName(),
			Escalations: r.Ladder.Escalations(),
			Recoveries:  r.Ladder.Recoveries(),
			Timeline:    r.Timeline(),
		}
		byRung := make(map[string]*RungSurvival)
		var plts []time.Duration
		for _, v := range visits {
			if v.region != ri {
				continue
			}
			out.Visits++
			s := byRung[v.rung]
			if s == nil {
				s = &RungSurvival{Rung: v.rung}
				byRung[v.rung] = s
			}
			s.Visits++
			if v.failed {
				out.Failed++
				s.Failed++
			} else {
				plts = append(plts, v.plt)
			}
		}
		for _, name := range carrier.Known() {
			if s := byRung[name]; s != nil {
				out.Survival = append(out.Survival, *s)
			}
		}
		out.PLT = obs.SummarizeDurations(plts)
		point.Borders = append(point.Borders, out)
	}
	return point, nil
}

// censorRows formats one profile's border rows plus its timelines.
func censorRows(p *CensorPoint) string {
	var b strings.Builder
	for _, o := range p.Borders {
		var surv []string
		for _, s := range o.Survival {
			surv = append(surv, fmt.Sprintf("%s %.0f%%", s.Rung, 100*s.SuccessRate()))
		}
		fmt.Fprintf(&b, "  %-10s %-9s %-12s %-12s %-10s %-8d %-8d %-9s %-7d %s\n",
			p.Profile, o.Border, o.FinalLevel, o.FinalRung,
			obs.FormatSeconds(o.PLT.Mean),
			o.Visits, o.Failed, fmt.Sprintf("%.1f%%", 100*o.SuccessRate()),
			o.Escalations, strings.Join(surv, ", "))
	}
	for _, o := range p.Borders {
		for _, e := range o.Timeline {
			switch e.Kind {
			case "escalate", "relax", "block-class", "stage":
				fmt.Fprintf(&b, "    [%s %7s] %-11s %s -> %s  (%s)\n",
					o.Border, obs.FormatSeconds(e.At.Seconds()),
					e.Kind, e.From, e.To, e.Reason)
			}
		}
	}
	return b.String()
}

// censorPlan decomposes the censor figure for the parallel harness: one
// world per profile, every cell deterministic, merged in declaration
// order.
func censorPlan(q Quality) figurePlan {
	rounds := q.ScaleRounds + 2
	var cells []cell
	for _, name := range censor.ProfileNames() {
		profile, _ := censor.ProfileByName(name)
		cells = append(cells, worldCell(name, 100+2*censorClients,
			Config{Censor: &profile, Resilience: true}, func(w *World) (cellResult, error) {
				p, err := w.MeasureCensorship(censorClients, rounds)
				if err != nil {
					return cellResult{}, err
				}
				return cellResult{Row: censorRows(p), Values: []namedValue{
					{Name: "success", Value: 100 * p.SuccessRate(), Unit: "%"},
					{Name: "borders", Value: float64(len(p.Borders)), Unit: ""}}}, nil
			}))
	}
	return figurePlan{
		Name:  "censor",
		Title: "Adaptive multi-border censorship",
		Header: fmt.Sprintf("Adaptive multi-border censor (%d clients/border, %d rounds at %s cadence; profiles: %s)\n",
			censorClients, rounds,
			obs.FormatSeconds(transportsStressInterval.Seconds()),
			strings.Join(censor.ProfileNames(), ", ")) +
			fmt.Sprintf("  %-10s %-9s %-12s %-12s %-10s %-8s %-8s %-9s %-7s %s\n",
				"profile", "border", "censor", "final rung", "plt(mean)",
				"visits", "failed", "success", "escal", "survival by rung"),
		Cells: cells,
	}
}
