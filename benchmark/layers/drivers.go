package layers

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"scholarcloud/internal/blinding"
	"scholarcloud/internal/cache"
	"scholarcloud/internal/cache/lru"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/gfw"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/mux"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/pac"
	"scholarcloud/internal/pki"
	"scholarcloud/internal/shard"
	"scholarcloud/internal/tlssim"
	"scholarcloud/internal/vclock"
)

var errDriver = errors.New("layers: driver call failed")

// must aborts the drivers on a failed call; Run turns the panic into its
// error. The drivers run fixed inputs over in-memory pipes, so a failure
// is a bug in a driver or in the module under it, never the
// environment's doing, and no batch that contains one is worth timing.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("%w: %v", errDriver, err))
	}
}

// discard is a carrier that swallows writes.
type discard struct{ net.Conn }

func (discard) Write(b []byte) (int, error) { return len(b), nil }

// blindingDrivers: the byte-map pass over a 32 KiB chunk (what a bulk
// body pays per frame) and the allocations of one 1 KiB write.
func blindingDrivers() ([]driver, func(), error) {
	conn := blinding.WrapConn(discard{}, blinding.SchemeForEpoch([]byte("benchmark-secret"), 0))
	chunk, msg := make([]byte, chunkBytes), make([]byte, messageBytes)
	write := func(b []byte) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				conn.Write(b)
			}
		}
	}
	return []driver{
		{span: "layer.blinding.write_chunk", n: 3000, run: write(chunk),
			report: func(b batch, out map[string]float64) { out["blinding.ns_per_kb"] = b.ns / (chunkBytes / 1024) }},
		{span: "layer.blinding.write_message", n: 50000, run: write(msg),
			report: func(b batch, out map[string]float64) { out["blinding.allocs_per_write"] = b.allocs }},
	}, nothing, nil
}

// tlssimDrivers: a full handshake over a pipe (both ends), and one 8 KiB
// record sealed, written, read and opened.
func tlssimDrivers() ([]driver, func(), error) {
	env := netx.RealEnv()
	ca, err := pki.NewCA("Benchmark CA", nil, nil)
	if err != nil {
		return nil, nil, err
	}
	id, err := ca.Issue("remote.scholarcloud.example", true)
	if err != nil {
		return nil, nil, err
	}
	pair := func() (*tlssim.Conn, *tlssim.Conn) {
		a, b := netx.Pipe(env)
		client := tlssim.Client(a, tlssim.Config{ServerName: "remote.scholarcloud.example"})
		server := tlssim.Server(b, tlssim.Config{Certificate: id.DER})
		done := make(chan error, 1)
		go func() { done <- server.Handshake() }()
		must(client.Handshake())
		must(<-done)
		return client, server
	}
	client, server := pair()
	object, sink := make([]byte, objectBytes), make([]byte, objectBytes)
	return []driver{
			{span: "layer.tlssim.handshake", n: 300,
				run: func(n int) {
					for i := 0; i < n; i++ {
						c, s := pair()
						c.Close()
						s.Close()
					}
				},
				report: func(b batch, out map[string]float64) { out["tlssim.handshake_us"] = b.ns / 1000 }},
			{span: "layer.tlssim.record", n: 2000,
				run: func(n int) {
					for i := 0; i < n; i++ {
						_, err := client.Write(object)
						must(err)
						_, err = io.ReadFull(server, sink)
						must(err)
					}
				},
				report: func(b batch, out map[string]float64) {
					out["tlssim.ns_per_kb"] = b.ns / (objectBytes / 1024)
					out["tlssim.allocs_per_record"] = b.allocs
				}},
		}, func() {
			client.Close()
			server.Close()
		}, nil
}

// echoAcceptor grants every stream and echoes what it carries, standing
// in for the remote proxy's origin connection.
func echoAcceptor(env netx.Env) mux.Acceptor {
	return func([]byte) (net.Conn, error) {
		near, far := netx.Pipe(env)
		go func() {
			io.Copy(far, far)
			far.Close()
		}()
		return near, nil
	}
}

// muxPair is two sessions joined by a pipe; the far one echoes.
func muxPair(env netx.Env) (*mux.Session, func()) {
	a, b := netx.Pipe(env)
	near := mux.NewSession(a, env, nil)
	far := mux.NewSession(b, env, echoAcceptor(env))
	return near, func() {
		near.Close()
		far.Close()
	}
}

// muxDrivers: a 1 KiB message out and back on an open stream (two data
// frames and the far side's relay), and a stream open + close.
func muxDrivers() ([]driver, func(), error) {
	env := netx.RealEnv()
	sess, release := muxPair(env)
	st, err := sess.Open([]byte("s:bench:443"))
	if err != nil {
		release()
		return nil, nil, err
	}
	msg, sink := make([]byte, messageBytes), make([]byte, messageBytes)
	return []driver{
		{span: "layer.mux.echo", n: 10000,
			run: func(n int) {
				for i := 0; i < n; i++ {
					_, err := st.Write(msg)
					must(err)
					_, err = io.ReadFull(st, sink)
					must(err)
				}
			},
			report: func(b batch, out map[string]float64) {
				out["mux.frame_ns"] = b.ns / 2
				out["mux.allocs_per_frame"] = b.allocs / 2
			}},
		{span: "layer.mux.open", n: 2000,
			run: func(n int) {
				for i := 0; i < n; i++ {
					s, err := sess.Open([]byte("s:bench:443"))
					must(err)
					s.Close()
				}
			},
			report: func(b batch, out map[string]float64) { out["mux.open_us"] = b.ns / 1000 }},
	}, release, nil
}

// httpsimDrivers: what a gateway request costs in the message layer —
// parse the absolute-URI request, parse an 8 KiB response (the miss
// path), encode an 8 KiB response.
func httpsimDrivers() ([]driver, func(), error) {
	body := make([]byte, objectBytes)
	reqRaw := []byte("GET http://127.0.0.1:8080/o/0123456789abcdef HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n\r\n")
	var respRaw bytes.Buffer
	resp := httpsim.NewResponse(200, body)
	if err := resp.Encode(&respRaw); err != nil {
		return nil, nil, err
	}
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	parse := func(raw []byte, read func() error) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				rd.Reset(raw)
				br.Reset(rd)
				must(read())
			}
		}
	}
	return []driver{
		{span: "layer.httpsim.read_request", n: 50000,
			run: parse(reqRaw, func() error { _, err := httpsim.ReadRequest(br); return err }),
			report: func(b batch, out map[string]float64) {
				out["httpsim.parse_request_ns"] = b.ns
				out["httpsim.allocs_per_message"] += b.allocs
			}},
		{span: "layer.httpsim.read_response", n: 15000,
			run:    parse(respRaw.Bytes(), func() error { _, err := httpsim.ReadResponse(br); return err }),
			report: func(b batch, out map[string]float64) { out["httpsim.parse_response_ns"] = b.ns }},
		{span: "layer.httpsim.encode_response", n: 50000,
			run: func(n int) {
				for i := 0; i < n; i++ {
					must(resp.Encode(io.Discard))
				}
			},
			report: func(b batch, out map[string]float64) {
				out["httpsim.encode_response_ns"] = b.ns
				out["httpsim.allocs_per_message"] += b.allocs
			}},
	}, nothing, nil
}

// keyPool hands out never-repeating cache keys without formatting them
// inside a timed batch.
type keyPool struct {
	keys []string
	next int
}

func newKeyPool(n int) *keyPool {
	p := &keyPool{keys: make([]string, n)}
	for i := range p.keys {
		p.keys[i] = fmt.Sprintf("http://127.0.0.1:8080/o/%016x", i)
	}
	return p
}

func (p *keyPool) take() string {
	k := p.keys[p.next%len(p.keys)]
	p.next++
	return k
}

// cacheDrivers: a hit on a 512 x 8 KiB hot set, a fill into a full 8 MiB
// cache (admit + evict), and the bare LRU add + evict under it.
func cacheDrivers() ([]driver, func(), error) {
	env := netx.RealEnv()
	body := make([]byte, objectBytes)
	origin := func(map[string]string) (*httpsim.Response, error) { return httpsim.NewResponse(200, body), nil }
	noFetch := func(map[string]string) (*httpsim.Response, error) {
		return nil, errors.New("hot key fetched upstream")
	}

	hot, err := cache.New(env, cache.Options{Capacity: 16 << 20, DefaultTTL: time.Hour})
	if err != nil {
		return nil, nil, err
	}
	const hotKeys = 512
	hotPool := newKeyPool(hotKeys)
	for i := 0; i < hotKeys; i++ {
		if _, _, err := hot.Fetch(hotPool.take(), origin); err != nil {
			return nil, nil, err
		}
	}

	const fills = 20000
	full, err := cache.New(env, cache.Options{Capacity: 8 << 20, DefaultTTL: time.Hour})
	if err != nil {
		return nil, nil, err
	}
	// Warm-up batch plus the timed ones never reuse a key.
	fillPool := newKeyPool(2048 + fills*(rounds+1))
	for i := 0; i < 2048; i++ {
		if _, _, err := full.Fetch(fillPool.take(), origin); err != nil {
			return nil, nil, err
		}
	}

	const cost = objectBytes + 64
	bare := lru.New(8<<20, nil)
	lruPool := newKeyPool(2048 + fills*(rounds+1))
	for i := 0; i < 2048; i++ {
		bare.Add(lruPool.take(), body, cost)
	}

	return []driver{
		{span: "layer.cache.hit", n: 100000,
			run: func(n int) {
				for i := 0; i < n; i++ {
					_, _, err := hot.Fetch(hotPool.take(), noFetch)
					must(err)
				}
			},
			report: func(b batch, out map[string]float64) {
				out["cache.hit_ns"] = b.ns
				out["cache.allocs_per_hit"] = b.allocs
			}},
		{span: "layer.cache.fill", n: fills,
			run: func(n int) {
				for i := 0; i < n; i++ {
					_, _, err := full.Fetch(fillPool.take(), origin)
					must(err)
				}
			},
			report: func(b batch, out map[string]float64) { out["cache.fill_ns"] = b.ns }},
		{span: "layer.lru.add_evict", n: fills,
			run: func(n int) {
				for i := 0; i < n; i++ {
					bare.Add(lruPool.take(), body, cost)
				}
			},
			report: func(b batch, out map[string]float64) { out["lru.add_evict_ns"] = b.ns }},
	}, nothing, nil
}

// fleetDrivers: a stream opened through the pool's pick policy onto a
// warm in-memory carrier, then closed.
func fleetDrivers() ([]driver, func(), error) {
	env := netx.RealEnv()
	var mu sync.Mutex // Dial runs on the pool's warmer goroutines
	var fars []*mux.Session
	pool, err := fleet.New(fleet.Config{
		Env:        env,
		NewSession: func(raw net.Conn) *mux.Session { return mux.NewSession(raw, env, nil) },
	}, []fleet.Endpoint{{
		Name: "memory",
		Dial: func() (net.Conn, error) {
			a, b := netx.Pipe(env)
			mu.Lock()
			fars = append(fars, mux.NewSession(b, env, echoAcceptor(env)))
			mu.Unlock()
			return a, nil
		},
	}})
	if err != nil {
		return nil, nil, err
	}
	meta := []byte("s:bench:443")
	// The first open dials the carriers; keep that out of the batches.
	st, err := pool.Open(meta)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	st.Close()
	return []driver{{
			span: "layer.fleet.open", n: 2000,
			run: func(n int) {
				for i := 0; i < n; i++ {
					s, err := pool.Open(meta)
					must(err)
					s.Close()
				}
			},
			report: func(b batch, out map[string]float64) { out["fleet.open_us"] = b.ns / 1000 },
		}}, func() {
			pool.Close()
			mu.Lock()
			defer mu.Unlock()
			for _, s := range fars {
				s.Close()
			}
		}, nil
}

// smallDrivers: the per-call costs of modules with one hot function.
func smallDrivers() ([]driver, func(), error) {
	ring := shard.NewRing([]string{"10.0.0.1:8118", "10.0.0.2:8118", "10.0.0.3:8118", "10.0.0.4:8118"})
	keys := newKeyPool(1024)
	policy := pac.New("127.0.0.1:8118", []string{
		"scholar.google.com", "scholar.googleusercontent.com", "accounts.google.com",
		"fonts.googleapis.com", "ssl.gstatic.com", "www.google.com",
	})
	counter := obs.NewRegistry().Counter("bench.hits")
	return []driver{
		{span: "layer.pki.issue", n: 100,
			run: func(n int) {
				for i := 0; i < n; i++ {
					ca, err := pki.NewCA("ScholarCloud Deployment CA", nil, nil)
					must(err)
					_, err = ca.Issue("remote.scholarcloud.example", true)
					must(err)
				}
			},
			report: func(b batch, out map[string]float64) { out["pki.issue_ms"] = b.ns / 1e6 }},
		{span: "layer.shard.owner", n: 100000,
			run: func(n int) {
				for i := 0; i < n; i++ {
					ring.Owner(keys.take())
				}
			},
			report: func(b batch, out map[string]float64) { out["shard.owner_ns"] = b.ns }},
		{span: "layer.pac.evaluate", n: 200000,
			run: func(n int) {
				for i := 0; i < n; i++ {
					policy.Evaluate("scholar.google.com")
				}
			},
			report: func(b batch, out map[string]float64) { out["pac.evaluate_ns"] = b.ns }},
		{span: "layer.obs.counter", n: 2000000,
			run: func(n int) {
				for i := 0; i < n; i++ {
					counter.Inc()
				}
			},
			report: func(b batch, out map[string]float64) { out["obs.counter_ns"] = b.ns }},
	}, nothing, nil
}

// vclockDrivers: scheduler event throughput and the managed-goroutine
// park/resume cycle, the two costs under every simulated second.
func vclockDrivers() ([]driver, func(), error) {
	return []driver{
		{span: "layer.vclock.event", n: 200000,
			run: func(n int) {
				s := vclock.New()
				defer s.Stop()
				for i := 0; i < n; i++ {
					s.Event(time.Duration(i), func() {})
				}
				s.Wait()
			},
			report: func(b batch, out map[string]float64) { out["vclock.event_ns"] = b.ns }},
		{span: "layer.vclock.sleep", n: 100000,
			run: func(n int) {
				s := vclock.New()
				defer s.Stop()
				done := make(chan struct{})
				s.Go(func() {
					defer close(done)
					for i := 0; i < n; i++ {
						s.Sleep(time.Microsecond)
					}
				})
				<-done
			},
			report: func(b batch, out map[string]float64) { out["vclock.sleep_switch_ns"] = b.ns }},
	}, nothing, nil
}

// netsimDrivers: a bulk TCP transfer across a lossy simulated border; the
// cost is reported per simulated packet.
func netsimDrivers() ([]driver, func(), error) {
	n := netsim.New(1)
	reg := obs.NewRegistry()
	n.Observe(reg)
	cn, usa := n.AddZone("cn"), n.AddZone("us")
	n.Connect(cn, usa, netsim.LinkConfig{Delay: 73 * time.Millisecond, Bandwidth: 125e6, BaseLoss: 0.002})
	access := netsim.LinkConfig{Delay: 2 * time.Millisecond, Bandwidth: 12.5e6}
	client := n.AddHost("client", "10.0.0.2", cn, access)
	server := n.AddHost("server", "8.8.4.4", usa, access)
	ln, err := server.Listen("tcp", ":80")
	if err != nil {
		n.Stop()
		return nil, nil, err
	}
	n.Scheduler().Go(func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n.Scheduler().Go(func() {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			})
		}
	})
	payload := make([]byte, 256<<10)
	calls := 0
	return []driver{{
		span: "layer.netsim.transfer", n: 40,
		run: func(count int) {
			done := make(chan error, 1)
			n.Scheduler().Go(func() {
				conn, err := client.DialTCP("8.8.4.4:80")
				if err != nil {
					done <- err
					return
				}
				defer conn.Close()
				for i := 0; i < count; i++ {
					if _, err := conn.Write(payload); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			})
			must(<-done)
			calls += count
		},
		report: func(b batch, out map[string]float64) {
			perCall := float64(reg.Snapshot().Counter("netsim.packets")) / float64(calls)
			out["netsim.packet_ns"] = b.ns / perCall
			out["netsim.allocs_per_packet"] = b.allocs / perCall
		},
	}}, n.Stop, nil
}

// gfwDrivers: the firewall's per-packet inspection over short HTTP flows
// to a host that is not blocked: SYN, a classified first flight, data,
// FIN — the path every border packet of the simulator takes.
func gfwDrivers() ([]driver, func(), error) {
	g := gfw.New(gfw.Config{
		Seed:           1,
		BlockedDomains: []string{"scholar.google.com", "google.com", "facebook.com"},
		MeekFronts:     []string{"ajax.aspnetcdn.com"},
	})
	client := netsim.AddrPort{IP: "10.0.0.2", Port: 40000}
	server := netsim.AddrPort{IP: "93.184.216.34", Port: 80}
	first := []byte("GET /index.html HTTP/1.1\r\nHost: www.example.org\r\nUser-Agent: bench\r\nAccept: */*\r\n\r\n")
	data := make([]byte, 1400)
	flow := []netsim.Packet{
		{Proto: netsim.ProtoTCP, Src: client, Dst: server, SYN: true},
		{Proto: netsim.ProtoTCP, Src: server, Dst: client, SYN: true, ACK: true},
		{Proto: netsim.ProtoTCP, Src: client, Dst: server, ACK: true, Payload: first},
		{Proto: netsim.ProtoTCP, Src: server, Dst: client, ACK: true, Payload: data},
		{Proto: netsim.ProtoTCP, Src: server, Dst: client, ACK: true, Payload: data},
		{Proto: netsim.ProtoTCP, Src: server, Dst: client, ACK: true, Payload: data},
		{Proto: netsim.ProtoTCP, Src: client, Dst: server, ACK: true},
		{Proto: netsim.ProtoTCP, Src: client, Dst: server, ACK: true, FIN: true},
	}
	port := 0
	return []driver{{
		span: "layer.gfw.inspect", n: 20000,
		run: func(n int) {
			for i := 0; i < n; i++ {
				port = (port + 1) % 20000
				for j := range flow {
					p := &flow[j]
					if p.Src.IP == client.IP {
						p.Src.Port = 40000 + port
					} else {
						p.Dst.Port = 40000 + port
					}
					if g.Inspect(p) != netsim.VerdictPass {
						must(fmt.Errorf("gfw reset or dropped an unblocked HTTP flow at packet %d", j))
					}
				}
			}
		},
		report: func(b batch, out map[string]float64) { out["gfw.classify_ns"] = b.ns / float64(len(flow)) },
	}}, nothing, nil
}
