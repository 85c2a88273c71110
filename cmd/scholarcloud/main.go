// Command scholarcloud runs the deployable split-proxy system over real
// sockets.
//
// Remote proxy (outside the censored network):
//
//	scholarcloud remote -listen :8443 -secret <key>
//
// Domestic proxy (inside; what browsers' PAC points at):
//
//	scholarcloud domestic -listen :8118 -web :8080 \
//	    -remote remote.example.com:8443 -secret <key> \
//	    -whitelist scholar.google.com,accounts.google.com \
//	    -public proxy.example.com:8118
//
// A domestic proxy can run a carrier escalation ladder instead of a
// fixed remote: -transports lists name=host:port rungs fastest first
// (blinded, rendezvous, dns-tunnel); the proxy prefers the lowest
// healthy rung, escalates on sustained transport failure, and probes
// back down when the rung below recovers. -censor-profile names the
// censorship regime the deployment expects to face (scripted, adaptive,
// or regional) and retunes the ladder — and, with -resilient, the retry
// budget — with the survival tuning the multi-border experiments
// measure.
//
// -shards N runs a horizontally sharded domestic tier in one process:
// shard i binds the -listen/-web/-admin (and derives the -public)
// address with the port incremented by i, the PAC assigns each user to
// a shard by rendezvous hash, and the shards' caches peer so each
// shared object crosses the border once tier-wide (requires -cache-mb).
// Multi-machine tiers instead start one process per shard, each listing
// the whole tier in DomesticConfig.ShardAddrs.
//
// -autoscale N makes the -shards tier elastic: N shards start active and
// the rest park as standbys while a metrics-driven control loop grows
// and shrinks the active set from the tier's own request rate — joiners
// warm their caches from peers before entering the ring, leavers drain
// their keys to the survivors. Scaling decisions are priced in $/day and
// served on every shard's -admin listener at /scale-events.
//
// Users configure their browser with http://<domestic>/pac — the single
// setting ScholarCloud requires.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"scholarcloud"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "remote":
		runRemote(os.Args[2:])
	case "domestic":
		runDomestic(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scholarcloud remote|domestic [flags]")
	os.Exit(2)
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

func runRemote(args []string) {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	listen := fs.String("listen", ":8443", "tunnel listen address")
	admin := fs.String("admin", "", "admin address serving /metrics and /healthz (empty = disabled)")
	secret := fs.String("secret", "", "blinding secret shared with the domestic proxy")
	epoch := fs.Uint64("epoch", 0, "blinding epoch")
	fs.Parse(args)
	if *secret == "" {
		fmt.Fprintln(os.Stderr, "remote: -secret is required")
		os.Exit(2)
	}
	r, err := scholarcloud.StartRemote(scholarcloud.RemoteConfig{
		Listen:      *listen,
		AdminListen: *admin,
		Secret:      []byte(*secret),
		Epoch:       *epoch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "remote:", err)
		os.Exit(1)
	}
	defer r.Close()
	fmt.Printf("scholarcloud remote proxy on %s (epoch %d)\n", r.Addr(), *epoch)
	if a := r.AdminAddr(); a != nil {
		fmt.Printf("admin endpoints at http://%s/metrics and /healthz\n", a)
	}
	waitForInterrupt()
}

func runDomestic(args []string) {
	fs := flag.NewFlagSet("domestic", flag.ExitOnError)
	listen := fs.String("listen", ":8118", "browser-facing proxy address")
	web := fs.String("web", ":8080", "PAC/whitelist web address")
	admin := fs.String("admin", "", "admin address serving /metrics and /healthz (empty = disabled)")
	remote := fs.String("remote", "", "remote proxy host:port (comma-separate several to run them as a managed fleet)")
	transports := fs.String("transports", "", "carrier escalation ladder: comma-separated name=host:port rungs, fastest first, e.g. blinded=r.example:8443,rendezvous=gw.example:443,dns-tunnel=127.0.0.1:5353 (replaces -remote)")
	censorProfile := fs.String("censor-profile", "", "censorship regime to survive, one of "+strings.Join(scholarcloud.CensorProfiles(), "|")+": retunes the -transports ladder (and, with -resilient, the retry budget) with the survival tuning the multi-border experiments measure")
	sessions := fs.Int("sessions", 0, "pre-dialed carrier sessions per fleet remote (0 = default)")
	secret := fs.String("secret", "", "blinding secret shared with the remote proxy")
	epoch := fs.Uint64("epoch", 0, "blinding epoch")
	whitelist := fs.String("whitelist", "scholar.google.com,accounts.google.com",
		"comma-separated visible whitelist of legal domains")
	public := fs.String("public", "", "proxy address written into the PAC file")
	cacheMB := fs.Int("cache-mb", 0, "shared content-cache budget in MiB (0 = no cache)")
	cacheTTL := fs.Duration("cache-ttl", 0, "heuristic freshness TTL for cached responses without max-age (0 = default)")
	shards := fs.Int("shards", 0, "run a sharded domestic tier of this many proxies in one process: shard i binds -listen/-web/-admin (and derives -public) at port+i; needs -cache-mb")
	autoscaleN := fs.Int("autoscale", 0, "autoscale the -shards tier: start with this many active shards, park the rest as standbys, and scale on demand (0 = static tier)")
	autoscaleEvery := fs.Duration("autoscale-interval", 0, "autoscaler control-loop interval (0 = default 15s; needs -autoscale)")
	resilient := fs.Bool("resilient", false, "enable client-path resilience: dial/request deadlines, reconnect backoff, hedged failover")
	dialTimeout := fs.Duration("dial-timeout", 0, "resilience per-dial deadline (0 = default 3s, 12s with -transports; needs -resilient or -transports)")
	requestTimeout := fs.Duration("request-timeout", 0, "resilience per-request deadline (0 = default 45s, 90s with -transports; needs -resilient)")
	fs.Parse(args)
	if *secret == "" || (*remote == "" && *transports == "") {
		fmt.Fprintln(os.Stderr, "domestic: -secret and one of -remote or -transports are required")
		os.Exit(2)
	}
	var remotes, rungs []string
	if *remote != "" {
		remotes = strings.Split(*remote, ",")
	}
	if *transports != "" {
		rungs = strings.Split(*transports, ",")
	}
	cfg := scholarcloud.DomesticConfig{
		ProxyListen:       *listen,
		WebListen:         *web,
		AdminListen:       *admin,
		RemoteAddrs:       remotes,
		Transports:        rungs,
		CensorProfile:     *censorProfile,
		SessionsPerRemote: *sessions,
		Secret:            []byte(*secret),
		Epoch:             *epoch,
		Whitelist:         strings.Split(*whitelist, ","),
		PublicProxyAddr:   *public,
		CacheMB:           *cacheMB,
		CacheTTL:          *cacheTTL,
		Resilience:        *resilient,
		DialTimeout:       *dialTimeout,
		RequestTimeout:    *requestTimeout,
	}
	if *autoscaleN > 0 && *shards < 2 {
		fmt.Fprintln(os.Stderr, "domestic: -autoscale needs a -shards tier to scale")
		os.Exit(2)
	}
	if *shards >= 2 {
		runDomesticTier(cfg, *shards, *autoscaleN, *autoscaleEvery)
		return
	}
	d, err := scholarcloud.StartDomestic(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "domestic:", err)
		os.Exit(1)
	}
	defer d.Close()
	fmt.Printf("scholarcloud domestic proxy on %s; PAC at http://%s/pac\n",
		d.ProxyAddr(), d.WebAddr())
	if a := d.AdminAddr(); a != nil {
		fmt.Printf("admin endpoints at http://%s/metrics and /healthz\n", a)
	}
	if t := d.ActiveTransport(); t != "" {
		fmt.Printf("transport ladder active rung: %s\n", t)
	}
	if *censorProfile != "" {
		fmt.Printf("censor survival tuning armed for the %q regime\n", *censorProfile)
	}
	waitForInterrupt()
}

// runDomesticTier starts the one-process sharded tier (optionally
// autoscaled) and prints every shard's listeners so operators can point
// health checks at each.
func runDomesticTier(cfg scholarcloud.DomesticConfig, shards, autoscaleN int, autoscaleEvery time.Duration) {
	tier, err := scholarcloud.StartDomesticTier(cfg, shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "domestic:", err)
		os.Exit(1)
	}
	defer tier.Close()
	if autoscaleN > 0 {
		err := tier.StartAutoscale(scholarcloud.AutoscaleOptions{
			InitialShards: autoscaleN,
			Interval:      autoscaleEvery,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "domestic:", err)
			os.Exit(1)
		}
		fmt.Printf("scholarcloud autoscaled domestic tier: %d of %d shards active (events at /scale-events)\n",
			autoscaleN, shards)
	} else {
		fmt.Printf("scholarcloud sharded domestic tier: %d shards\n", shards)
	}
	for i, d := range tier.Shards() {
		fmt.Printf("  shard %d proxy on %s; PAC at http://%s/pac\n", i, d.ProxyAddr(), d.WebAddr())
		if a := d.AdminAddr(); a != nil {
			fmt.Printf("  shard %d admin at http://%s/metrics and /healthz\n", i, a)
		}
	}
	waitForInterrupt()
}
