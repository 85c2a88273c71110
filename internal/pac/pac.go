// Package pac generates and evaluates proxy auto-config policies.
//
// ScholarCloud's entire client-side footprint is one browser setting: a
// PAC URL (§3 of the paper). The generated file diverts only the visible
// whitelist of incidentally-blocked legal domains to the domestic proxy;
// everything else goes DIRECT. The package also implements the matching
// semantics in Go (Evaluate), which is what the simulated browser and the
// domestic proxy use, and what the tests validate the generated
// JavaScript against.
//
// A policy may carry several proxy endpoints — the sharded domestic tier.
// Users are assigned to shards by rendezvous-hashing the client IP
// (shard.Score), and the generated JavaScript reproduces the assignment
// with myIpAddress() and the same JS-safe FNV-1a, so a real browser and
// the simulator route a given user to the same shard, with the remaining
// shards as browser-native "PROXY a; PROXY b" failover.
package pac

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"

	"scholarcloud/internal/shard"
)

// Decision is the routing outcome for a URL.
type Decision struct {
	// Proxy is false for DIRECT.
	Proxy bool
	// Address is the preferred proxy "host:port" when Proxy is true.
	Address string
	// Addresses is the full failover list in preference order (Address
	// first). Single-proxy policies carry a one-element list.
	Addresses []string
}

// String renders the decision in PAC syntax.
func (d Decision) String() string {
	if !d.Proxy {
		return "DIRECT"
	}
	if len(d.Addresses) > 1 {
		return "PROXY " + strings.Join(d.Addresses, "; PROXY ")
	}
	return "PROXY " + d.Address
}

// Config is a PAC policy: route listed domains (and their subdomains)
// through the proxy tier, everything else direct.
type Config struct {
	mu      sync.RWMutex
	proxies []string // shard endpoints, in configured order
	domains []string // sorted, lowercase
}

// New creates a policy routing domains through proxyAddr.
func New(proxyAddr string, domains []string) *Config {
	c := &Config{}
	if proxyAddr != "" {
		c.proxies = []string{proxyAddr}
	}
	c.SetDomains(domains)
	return c
}

// SetDomains replaces the whitelist (the on-demand alteration the paper's
// registration regime requires).
func (c *Config) SetDomains(domains []string) {
	normalized := make([]string, 0, len(domains))
	for _, d := range domains {
		d = strings.ToLower(strings.TrimSuffix(strings.TrimSpace(d), "."))
		if d != "" {
			normalized = append(normalized, d)
		}
	}
	sort.Strings(normalized)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.domains = normalized
}

// SetProxies replaces the proxy tier — the hook internal/tier publishes
// the live shard set through after a takedown or recovery, so the next
// PAC download stops routing users to dead shards.
func (c *Config) SetProxies(proxies []string) {
	cleaned := make([]string, 0, len(proxies))
	for _, p := range proxies {
		if p = strings.TrimSpace(p); p != "" {
			cleaned = append(cleaned, p)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.proxies = cleaned
}

// Proxies returns a copy of the proxy tier in configured order.
func (c *Config) Proxies() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.proxies...)
}

// Domains returns a copy of the whitelist — the "visible whitelist"
// government agencies can audit.
func (c *Config) Domains() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.domains...)
}

// ProxyAddr returns the first proxy endpoint ("" when the tier is empty).
func (c *Config) ProxyAddr() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.proxies) == 0 {
		return ""
	}
	return c.proxies[0]
}

// Match reports whether host is covered by the whitelist (exact domain or
// subdomain, mirroring dnsDomainIs semantics). host may carry a ":port"
// suffix (proxy targets arrive as host:port) and a trailing dot; both are
// ignored, and matching is case-insensitive.
func (c *Config) Match(host string) bool {
	host = strings.ToLower(host)
	// Strip an optional port without mangling bare IPv6 literals ("::1"
	// has colons but no port): only net.SplitHostPort decides whether a
	// suffix is really a port, and on error the raw host stands.
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	// A bracketed IPv6 literal without a port ("[::1]") is unwrapped.
	if strings.HasPrefix(host, "[") && strings.HasSuffix(host, "]") {
		host = host[1 : len(host)-1]
	}
	host = strings.TrimSuffix(host, ".")
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, d := range c.domains {
		if host == d || strings.HasSuffix(host, "."+d) {
			return true
		}
	}
	return false
}

// Evaluate returns the routing decision for host with the proxy tier in
// configured order. Callers that know which client is asking should use
// EvaluateFor so sharded tiers hash the user onto its shard.
func (c *Config) Evaluate(host string) Decision {
	if !c.Match(host) {
		return Decision{}
	}
	addrs := c.Proxies()
	if len(addrs) == 0 {
		return Decision{}
	}
	return Decision{Proxy: true, Address: addrs[0], Addresses: addrs}
}

// EvaluateFor returns the routing decision for host as seen by the client
// at clientIP: proxies ordered by rendezvous preference for that user,
// exactly as the generated JavaScript orders them via myIpAddress(). With
// one proxy it degenerates to Evaluate.
func (c *Config) EvaluateFor(clientIP, host string) Decision {
	if !c.Match(host) {
		return Decision{}
	}
	c.mu.RLock()
	addrs := shard.Rank(clientIP, c.proxies)
	c.mu.RUnlock()
	if len(addrs) == 0 {
		return Decision{}
	}
	return Decision{Proxy: true, Address: addrs[0], Addresses: addrs}
}

// JavaScript renders the policy as a PAC file for real browsers. A
// single-proxy policy renders the classic per-domain "PROXY addr" file; a
// sharded tier additionally embeds the JS-safe FNV-1a and rendezvous sort
// so the browser computes the same user→shard assignment as EvaluateFor.
func (c *Config) JavaScript() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var b strings.Builder
	b.WriteString("// ScholarCloud proxy auto-config\n")
	b.WriteString("// Only the whitelisted, incidentally-blocked legal services below\n")
	b.WriteString("// are diverted through the proxy; all other traffic is DIRECT.\n")
	b.WriteString("function FindProxyForURL(url, host) {\n")
	if len(c.proxies) > 1 {
		b.WriteString("  var shards = [")
		for i, p := range c.proxies {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q", p)
		}
		b.WriteString("];\n")
		// The hash must stay bit-identical to shard.Hash32: FNV-1a with
		// the prime decomposed into shift-adds because JS bitwise ops are
		// 32-bit while * would round through 53-bit floats.
		b.WriteString("  function h32(s) {\n")
		b.WriteString("    var h = 2166136261;\n")
		b.WriteString("    for (var i = 0; i < s.length; i++) {\n")
		b.WriteString("      h = h ^ s.charCodeAt(i);\n")
		b.WriteString("      h = (h + (h << 1) + (h << 4) + (h << 7) + (h << 8) + (h << 24)) >>> 0;\n")
		b.WriteString("    }\n")
		b.WriteString("    return h;\n")
		b.WriteString("  }\n")
		b.WriteString("  function route() {\n")
		b.WriteString("    var me = myIpAddress();\n")
		b.WriteString("    var order = shards.slice();\n")
		b.WriteString("    order.sort(function (a, b) {\n")
		b.WriteString("      var sa = h32(me + \"|\" + a), sb = h32(me + \"|\" + b);\n")
		b.WriteString("      if (sa != sb) return sb - sa;\n")
		b.WriteString("      return a < b ? -1 : 1;\n")
		b.WriteString("    });\n")
		b.WriteString("    var out = \"\";\n")
		b.WriteString("    for (var i = 0; i < order.length; i++) out += (i ? \"; \" : \"\") + \"PROXY \" + order[i];\n")
		b.WriteString("    return out;\n")
		b.WriteString("  }\n")
		for _, d := range c.domains {
			fmt.Fprintf(&b, "  if (dnsDomainIs(host, %q) || host == %q) return route();\n",
				"."+d, d)
		}
	} else {
		addr := ""
		if len(c.proxies) == 1 {
			addr = c.proxies[0]
		}
		for _, d := range c.domains {
			fmt.Fprintf(&b, "  if (dnsDomainIs(host, %q) || host == %q) return \"PROXY %s\";\n",
				"."+d, d, addr)
		}
	}
	b.WriteString("  return \"DIRECT\";\n}\n")
	return b.String()
}
