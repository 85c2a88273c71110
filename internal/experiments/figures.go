package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"scholarcloud/internal/netsim"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/tunnel"
)

// scholarURL is the page the paper's workload requests every 60 seconds.
// It is the plain-HTTP form, so every access exercises the TCP-2 HTTPS
// redirection of Fig. 4 (§4.2: "send HTTP requests for the home page").
const scholarURL = "http://scholar.google.com/"

// mirrorURL is the identical page on the uncensored mirror, standing in
// for the paper's direct-from-the-US baseline.
const mirrorURL = "http://scholar-mirror.example/"

// visitInterval is the workload cadence.
const visitInterval = 60 * time.Second

// preconnector is implemented by methods whose users keep the tunnel
// established before browsing (VPNs); prepare connects them outside the
// measured page loads. Tor deliberately does not match: its circuit
// construction is part of the paper's first-time PLT.
type preconnector interface{ Connect() error }

// prepare pre-establishes a method's tunnel when that reflects real
// usage. It must run on a managed goroutine.
func prepare(m tunnel.Method) error {
	if c, ok := m.(preconnector); ok {
		return c.Connect()
	}
	return nil
}

// Factory builds one access method bound to a client host.
type Factory struct {
	Name string
	// URL is what the browser visits through this method (the mirror for
	// the direct baseline, Scholar for everything else).
	URL string
	// New creates a fresh method instance on host h.
	New func(h *netsim.Host) tunnel.Method
	// ExtraPLRHosts lists additional NICs where this method's censored
	// traffic is observed (ScholarCloud's tunnel terminates at the
	// domestic proxy, not the client).
	ExtraPLRHosts []*netsim.Host
}

// Methods returns the five studied access methods (Fig. 2), plus the
// uncensored direct baseline used by Figs. 5c and 6a.
func (w *World) Methods() []Factory {
	return []Factory{
		{
			Name: "native-vpn",
			URL:  scholarURL,
			New:  func(h *netsim.Host) tunnel.Method { return w.NativeVPN(h) },
		},
		{
			Name: "openvpn",
			URL:  scholarURL,
			New:  func(h *netsim.Host) tunnel.Method { return w.OpenVPN(h) },
		},
		{
			Name: "tor",
			URL:  scholarURL,
			New:  func(h *netsim.Host) tunnel.Method { return w.Tor(h) },
		},
		{
			Name: "shadowsocks",
			URL:  scholarURL,
			New:  func(h *netsim.Host) tunnel.Method { return w.Shadowsocks(h) },
		},
		w.ScholarCloudFactory(),
	}
}

// ScholarCloudFactory is the paper's own system among Methods — the one
// method every post-paper figure (fleet, cache, faults, ...) loads.
func (w *World) ScholarCloudFactory() Factory {
	return Factory{
		Name:          "scholarcloud",
		URL:           scholarURL,
		New:           func(h *netsim.Host) tunnel.Method { return w.ScholarCloud(h) },
		ExtraPLRHosts: []*netsim.Host{w.SCDomestic},
	}
}

// FactoryByName resolves a method name to its factory, including the
// "direct-us" baseline. The second return is false for unknown names.
func (w *World) FactoryByName(name string) (Factory, bool) {
	if name == "direct-us" {
		return w.DirectBaseline(), true
	}
	for _, f := range w.Methods() {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}

// DirectBaseline is the uncensored reference measurement.
func (w *World) DirectBaseline() Factory {
	return Factory{
		Name: "direct-us",
		URL:  mirrorURL,
		New:  func(h *netsim.Host) tunnel.Method { return w.Direct(h) },
	}
}

// --- Fig. 5a: page load time ---------------------------------------------

// PLTResult is one method's Fig. 5a datapoint.
type PLTResult struct {
	Method     string
	FirstTime  obs.Summary // seconds
	Subsequent obs.Summary // seconds
}

// MeasurePLT runs the paper's workload: firstRuns independent first-time
// loads (fresh caches, fresh tunnels where the method builds them
// lazily), then one stack performing subsequentSamples loads at the 60 s
// cadence.
func (w *World) MeasurePLT(f Factory, firstRuns, subsequentSamples int) (*PLTResult, error) {
	res := &PLTResult{Method: f.Name}
	var firsts, subs []time.Duration

	err := w.Run(func() error {
		for r := 0; r < firstRuns; r++ {
			method := f.New(w.Client)
			if err := prepare(method); err != nil {
				return fmt.Errorf("%s prepare: %w", f.Name, err)
			}
			browser := w.newBrowser(method)
			st := browser.Visit(f.URL)
			if st.Failed {
				method.Close()
				return fmt.Errorf("%s first visit: %w", f.Name, st.Err)
			}
			firsts = append(firsts, st.PLT)
			if r < firstRuns-1 {
				method.Close()
				w.Env.Clock.Sleep(visitInterval)
				continue
			}
			// Continue with this stack for the subsequent series.
			for i := 0; i < subsequentSamples; i++ {
				w.Env.Clock.Sleep(visitInterval - st.PLT)
				st = browser.Visit(f.URL)
				if st.Failed {
					method.Close()
					return fmt.Errorf("%s subsequent visit %d: %w", f.Name, i, st.Err)
				}
				subs = append(subs, st.PLT)
			}
			method.Close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.FirstTime = obs.SummarizeDurations(firsts)
	res.Subsequent = obs.SummarizeDurations(subs)
	return res, nil
}

// --- Fig. 5b: round-trip time ---------------------------------------------

// RTTResult is one method's Fig. 5b datapoint.
type RTTResult struct {
	Method string
	RTT    obs.Summary // seconds
}

// MeasureRTT opens one tunneled connection to the origin's echo service
// and measures application-level round trips (the network-efficiency
// metric of Fig. 5b).
func (w *World) MeasureRTT(f Factory, probes int) (*RTTResult, error) {
	res := &RTTResult{Method: f.Name}
	var rtts []time.Duration

	host := "scholar.google.com"
	if f.Name == "direct-us" {
		host = "scholar-mirror.example"
	}
	err := w.Run(func() error {
		method := f.New(w.Client)
		defer method.Close()
		if err := prepare(method); err != nil {
			return fmt.Errorf("%s prepare: %w", f.Name, err)
		}
		conn, err := method.DialHost(host, portEcho)
		if err != nil {
			return fmt.Errorf("%s echo dial: %w", f.Name, err)
		}
		defer conn.Close()
		buf := make([]byte, 32)
		for i := 0; i < probes; i++ {
			start := w.Env.Clock.Now()
			if _, err := conn.Write(buf); err != nil {
				return err
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				return err
			}
			rtt := w.Env.Clock.Now().Sub(start)
			if i > 0 { // skip the cold round (slow-start artifacts)
				rtts = append(rtts, rtt)
			}
			w.Env.Clock.Sleep(time.Second)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.RTT = obs.SummarizeDurations(rtts)
	return res, nil
}

// --- Fig. 5c: packet loss rate ---------------------------------------------

// PLRResult is one method's Fig. 5c datapoint.
type PLRResult struct {
	Method string
	PLR    float64
	// Packets is the sample size behind the estimate.
	Packets int64
}

// MeasurePLR runs the visit workload while counting packets on the NICs
// that carry the method's censored traffic.
func (w *World) MeasurePLR(f Factory, visits int) (*PLRResult, error) {
	hosts := append([]*netsim.Host{w.Client}, f.ExtraPLRHosts...)
	err := w.Run(func() error {
		method := f.New(w.Client)
		defer method.Close()
		if err := prepare(method); err != nil {
			return fmt.Errorf("%s prepare: %w", f.Name, err)
		}
		browser := w.newBrowser(method)
		// Warm up (tunnel establishment, first-visit extras), then reset
		// counters so only steady-state traffic is sampled.
		if st := browser.Visit(f.URL); st.Failed {
			return fmt.Errorf("%s warmup: %w", f.Name, st.Err)
		}
		for _, h := range hosts {
			h.ResetStats()
		}
		for i := 0; i < visits; i++ {
			w.Env.Clock.Sleep(visitInterval)
			// Full-page fetches give the loss estimator a usable sample
			// size per visit.
			browser.ClearContentCache()
			if st := browser.Visit(f.URL); st.Failed {
				return fmt.Errorf("%s visit %d: %w", f.Name, i, st.Err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var lost, total int64
	for _, h := range hosts {
		st := h.Stats()
		lost += st.LostOutbound + st.LostInbound
		total += st.TxPackets + st.RxPackets + st.LostInbound
	}
	res := &PLRResult{Method: f.Name, Packets: total}
	if total > 0 {
		res.PLR = float64(lost) / float64(total)
	}
	return res, nil
}

// --- Fig. 6a: client traffic ------------------------------------------------

// TrafficResult is one method's Fig. 6a datapoint.
type TrafficResult struct {
	Method         string
	BytesPerAccess float64
	Accesses       int
}

// MeasureTraffic counts client NIC bytes (headers included, both
// directions) across full 60-second access windows, so keepalive and
// polling overheads are attributed the way a packet capture would.
func (w *World) MeasureTraffic(f Factory, visits int) (*TrafficResult, error) {
	err := w.Run(func() error {
		method := f.New(w.Client)
		defer method.Close()
		if err := prepare(method); err != nil {
			return fmt.Errorf("%s prepare: %w", f.Name, err)
		}
		browser := w.newBrowser(method)
		if st := browser.Visit(f.URL); st.Failed {
			return fmt.Errorf("%s warmup: %w", f.Name, st.Err)
		}
		w.Env.Clock.Sleep(visitInterval)
		w.Client.ResetStats()
		for i := 0; i < visits; i++ {
			// The paper's per-access traffic is for a full page fetch;
			// drop the content cache so each access transfers everything.
			browser.ClearContentCache()
			if st := browser.Visit(f.URL); st.Failed {
				return fmt.Errorf("%s visit %d: %w", f.Name, i, st.Err)
			}
			w.Env.Clock.Sleep(visitInterval)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := w.Client.Stats()
	return &TrafficResult{
		Method:         f.Name,
		BytesPerAccess: float64(st.TxBytes+st.RxBytes) / float64(visits),
		Accesses:       visits,
	}, nil
}

// --- Fig. 7: scalability ------------------------------------------------------

// ScalabilityPoint is one (method, concurrency) cell of Fig. 7.
type ScalabilityPoint struct {
	Method  string
	Clients int
	PLT     obs.Summary // seconds
	Failed  int
}

// MeasureScalability runs n concurrent clients, each performing `rounds`
// visits at the 60-second cadence with staggered start offsets, and
// reports the mean PLT across all visits.
func (w *World) MeasureScalability(f Factory, n, rounds int) (*ScalabilityPoint, error) {
	return w.measureScalabilityAt(f, n, rounds, visitInterval, false)
}

// measureScalabilityAt is MeasureScalability with a configurable visit
// cadence; the fleet experiment uses a continuous-browsing cadence to
// expose remote-side capacity that Fig. 7's 60 s think time hides.
// clearCache drops each browser's content cache before every visit, so
// every round re-fetches the full page — the shared-cache experiment uses
// it to keep client-side caching from masking proxy-side caching.
func (w *World) measureScalabilityAt(f Factory, n, rounds int, cadence time.Duration, clearCache bool) (*ScalabilityPoint, error) {
	point := &ScalabilityPoint{Method: f.Name, Clients: n}
	results, err := w.runStaggeredClients(f, n, rounds, cadence, clearCache)
	if err != nil {
		return nil, err
	}
	plts := successfulPLTs(results)
	point.Failed = len(results) - len(plts)
	point.PLT = obs.SummarizeDurations(plts)
	return point, nil
}

// visitResult is one browser visit's outcome inside a staggered cohort.
type visitResult struct {
	start  time.Duration // when the visit began, as an offset from cohort start
	plt    time.Duration
	failed bool
}

// successfulPLTs returns the page-load times of the visits that
// succeeded; the rest of results failed.
func successfulPLTs(results []visitResult) []time.Duration {
	var plts []time.Duration
	for _, r := range results {
		if !r.failed {
			plts = append(plts, r.plt)
		}
	}
	return plts
}

// runStaggeredClients runs one staggeredClients cohort in its own Run
// window.
func (w *World) runStaggeredClients(f Factory, n, rounds int, cadence time.Duration, clearCache bool) ([]visitResult, error) {
	var results []visitResult
	err := w.Run(func() error {
		results = w.staggeredClients(f, n, rounds, cadence, clearCache)
		return nil
	})
	return results, err
}

// staggeredClients runs n concurrent packet-level clients, each
// performing `rounds` visits at the given cadence with arrival offsets
// staggered uniformly across one cadence interval. It is the shared
// engine behind the packet-mode scalability figures, the sampled tracing
// clients of the flow-level mode, and the mid-run takedown episodes. It
// must run inside a Run window; an episode spawns its takedown goroutine
// in the same window first, and its offsets then share the visits' origin.
func (w *World) staggeredClients(f Factory, n, rounds int, cadence time.Duration, clearCache bool) []visitResult {
	var mu sync.Mutex
	var results []visitResult
	t0 := w.Env.Clock.Now()

	wg := w.Env.NewWaitGroup()
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		w.Env.Spawn.Go(func() {
			defer wg.Done()
			h := w.newScaleClient(i)
			method := f.New(h)
			defer method.Close()
			if err := prepare(method); err != nil {
				mu.Lock()
				results = append(results, visitResult{start: w.Env.Clock.Now().Sub(t0), failed: true})
				mu.Unlock()
				return
			}
			browser := w.newBrowser(method)
			// Stagger arrivals uniformly across the interval.
			w.Env.Clock.Sleep(time.Duration(i) * cadence / time.Duration(n))
			for r := 0; r < rounds; r++ {
				if clearCache {
					browser.ClearContentCache()
				}
				start := w.Env.Clock.Now().Sub(t0)
				st := browser.Visit(f.URL)
				mu.Lock()
				results = append(results, visitResult{start: start, plt: st.PLT, failed: st.Failed})
				mu.Unlock()
				sleep := cadence - st.PLT
				if sleep > 0 {
					w.Env.Clock.Sleep(sleep)
				}
			}
		})
	}
	wg.Wait()
	return results
}

// scaleClients caches client hosts across sweep points so repeated
// concurrency levels reuse machines.
func (w *World) newScaleClient(i int) *netsim.Host {
	ip := fmt.Sprintf("10.3.%d.%d", 2+i/200, i%200+1)
	if h := w.Net.HostByIP(ip); h != nil {
		return h
	}
	return w.Net.AddHost(fmt.Sprintf("scale-client-%d", i), ip, w.Cernet, accessLink())
}

// ScalabilitySweep is Fig. 7's x-axis.
var ScalabilitySweep = []int{5, 15, 30, 60, 90, 120, 150, 180}

// --- Fig. 4: session structure -----------------------------------------------

// SessionStructure is the per-method connection anatomy of Fig. 4.
type SessionStructure struct {
	Method string
	// TCP1 is the Shadowsocks-only authentication connection.
	TCP1 bool
	// TCP2 is the HTTP→HTTPS redirection connection.
	TCP2 bool
	// TCP3 is the data exchange (always present).
	TCP3 bool
	// TCP4 is the first-visit account recording connection.
	TCP4 bool
	// SubsequentTCP4 reports whether TCP-4 recurs on later visits
	// (it must not).
	SubsequentTCP4 bool
}

// MeasureSessionStructure performs a first and a subsequent visit and
// reports which of Fig. 4's connections appeared.
func (w *World) MeasureSessionStructure(f Factory) (*SessionStructure, error) {
	out := &SessionStructure{Method: f.Name, TCP3: true}
	err := w.Run(func() error {
		method := f.New(w.Client)
		defer method.Close()
		if err := prepare(method); err != nil {
			return fmt.Errorf("%s prepare: %w", f.Name, err)
		}

		authBefore := w.SSServer.Stats().AuthConns
		browser := w.newBrowser(method)
		first := browser.Visit(f.URL)
		if first.Failed {
			return fmt.Errorf("%s first visit: %w", f.Name, first.Err)
		}
		out.TCP1 = w.SSServer.Stats().AuthConns > authBefore
		out.TCP2 = first.Redirects > 0
		out.TCP4 = first.AccountRecorded

		w.Env.Clock.Sleep(visitInterval)
		second := browser.Visit(f.URL)
		if second.Failed {
			return fmt.Errorf("%s second visit: %w", f.Name, second.Err)
		}
		out.SubsequentTCP4 = second.AccountRecorded
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Extension: the full-tunnel domestic-latency penalty (§1) -----------------

// DomesticPenalty compares PLT for a domestic site accessed directly
// versus through the full-tunnel native VPN, quantifying the paper's
// claim that VPNs "significantly increase access latency to domestic
// Internet services".
func (w *World) DomesticPenalty() (direct, viaVPN time.Duration, err error) {
	const url = "http://www.tsinghua.edu.cn/"
	err = w.Run(func() error {
		d := w.Direct(w.Client)
		b := w.newBrowser(d)
		if st := b.Visit(url); st.Failed {
			return fmt.Errorf("direct domestic visit: %w", st.Err)
		}
		st := b.Visit(url)
		if st.Failed {
			return fmt.Errorf("direct domestic revisit: %w", st.Err)
		}
		direct = st.PLT

		v := w.NativeVPN(w.Client)
		defer v.Close()
		if err := prepare(v); err != nil {
			return err
		}
		bv := w.newBrowser(v)
		if st := bv.Visit(url); st.Failed {
			return fmt.Errorf("vpn domestic visit: %w", st.Err)
		}
		st = bv.Visit(url)
		if st.Failed {
			return fmt.Errorf("vpn domestic revisit: %w", st.Err)
		}
		viaVPN = st.PLT
		return nil
	})
	return direct, viaVPN, err
}
