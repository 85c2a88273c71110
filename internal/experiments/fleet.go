package experiments

// Fleet-scalability experiment: what the paper's two-VM manual-standby
// deployment becomes when the domestic proxy runs against an
// internal/fleet pool of remote proxies. Two questions:
//
//  1. Capacity — does adding remotes buy page-load time at high client
//     concurrency? (Under continuous browsing the paper's single remote
//     is the bottleneck: every user's streams share its carrier pool.)
//  2. Resilience — when a remote is seized mid-sweep (its listener and
//     carriers die without notice), do users see failures beyond the
//     prober's detection window?

import (
	"fmt"
	"time"

	"scholarcloud/internal/obs"
)

// fleetStressInterval is the fleet sweep's visit cadence. Fig. 7's 60 s
// think time leaves the remote side a few percent utilized even at 120
// clients (the paper's scalability claim), so pool capacity only shows
// at a heavier cadence: at 20 s per visit a single remote's carrier pool
// (head-of-line queueing across every user's streams) is the limit past
// 120 clients, so added remotes lower PLT.
const fleetStressInterval = 20 * time.Second

// MeasureFleetScalability sweeps ScholarCloud under continuous browsing
// (every client revisits as soon as the cadence allows). The one-remote
// world — the paper's deployment — is the baseline the larger pools are
// compared against.
func (w *World) MeasureFleetScalability(n, rounds int) (*ScalabilityPoint, error) {
	return w.measureScalabilityAt(w.ScholarCloudFactory(), n, rounds, fleetStressInterval, false)
}

// fleetEjectionWindow bounds how long a silent takedown can go unnoticed:
// EjectAfter (fleet default 2) probe rounds plus one probe timeout. Page
// loads that *start* inside the window may race the detection; anything
// after it must succeed.
const fleetEjectionWindow = 2*fleetProbeInterval + fleetProbeTimeout

// FleetTakedownResult classifies a load sweep's visits around a mid-sweep
// remote takedown.
type FleetTakedownResult struct {
	Remotes int
	Clients int
	KillAt  time.Duration // offset of the takedown from sweep start
	Window  time.Duration // ejection window after the takedown
	PLT     obs.Summary

	// Visit/failure counts by when the visit started: before the
	// takedown, inside the ejection window, and after it.
	VisitsBefore, FailedBefore int
	VisitsWindow, FailedWindow int
	VisitsAfter, FailedAfter   int
}

// MeasureFleetTakedown runs n concurrent ScholarCloud clients for
// `rounds` visits each and seizes fleet remote `victim` at killAt.
// The world must have been built with Cfg.FleetRemotes >= 2: the sweep
// measures rotation onto the survivors.
func (w *World) MeasureFleetTakedown(n, rounds, victim int, killAt time.Duration) (*FleetTakedownResult, error) {
	if w.Cfg.FleetRemotes < 2 {
		return nil, fmt.Errorf("experiments: a takedown needs a surviving remote (Config.FleetRemotes is %d, want >= 2)", w.Cfg.FleetRemotes)
	}
	res := &FleetTakedownResult{
		Remotes: w.Cfg.FleetRemotes,
		Clients: n,
		KillAt:  killAt,
		Window:  fleetEjectionWindow,
	}
	var visits []visitResult
	err := w.Run(func() error {
		w.Env.Spawn.Go(func() {
			w.Env.Clock.Sleep(killAt)
			w.TakedownFleetRemote(victim)
		})
		visits = w.staggeredClients(w.ScholarCloudFactory(), n, rounds, visitInterval, false)
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, v := range visits {
		switch {
		case v.start < killAt:
			res.VisitsBefore++
			if v.failed {
				res.FailedBefore++
			}
		case v.start < killAt+fleetEjectionWindow:
			res.VisitsWindow++
			if v.failed {
				res.FailedWindow++
			}
		default:
			res.VisitsAfter++
			if v.failed {
				res.FailedAfter++
			}
		}
	}
	res.PLT = obs.SummarizeDurations(successfulPLTs(visits))
	return res, nil
}
