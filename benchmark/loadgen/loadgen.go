// Package loadgen is the benchmark's two ends: the origin the remote
// proxy fetches from and the closed-loop client that drives the domestic
// proxy. Both are allocation-free in steady state — prebuilt request and
// response bytes, reusable read buffers, hand-parsed heads — so the
// process-wide allocation counters the benchmark reports are the
// program's, not the harness's.
package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// keyWidth is the fixed width of a key on the wire (hex), so a request
// can be patched in place.
const keyWidth = 16

const pathPrefix = "/o/"

var (
	getPrefix     = []byte("GET ")
	keyPrefix     = []byte(pathPrefix)
	headEnd       = []byte("\r\n\r\n")
	contentLength = []byte("Content-Length: ")
	hexDigits     = []byte("0123456789abcdef")
)

// bodyWindow is how many distinct body offsets the corpus offers: a
// response that belongs to another key passes verification with
// probability 1/bodyWindow.
const bodyWindow = 1 << 16

// Corpus is the seed-derived content the origin serves. The body for a
// key is a key-dependent window of one random buffer, so origin and
// client agree on every byte of every response without either of them
// generating or hashing anything per request.
type Corpus struct {
	data []byte
	size int
	salt uint64
	head []byte // response head, constant for the corpus
}

// NewCorpus builds the content for bodies of size bytes from seed.
func NewCorpus(seed uint64, size int) *Corpus {
	c := &Corpus{data: make([]byte, size+bodyWindow), size: size, salt: mix(seed)}
	rand.New(rand.NewSource(int64(seed))).Read(c.data)
	c.head = []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size))
	return c
}

// Body is the expected response body for key.
func (c *Corpus) Body(key uint64) []byte {
	off := mix(key^c.salt) % bodyWindow
	return c.data[off : off+uint64(c.size)]
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Keys is a reproducible key stream: the same seed and stream number give
// the same keys in the same order.
type Keys struct{ state uint64 }

// NewKeys returns stream number stream of seed.
func NewKeys(seed uint64, stream int) *Keys {
	return &Keys{state: mix(seed) ^ mix(uint64(stream)+1)<<1}
}

// Next returns the next pseudo-random 64-bit key.
func (k *Keys) Next() uint64 {
	k.state += 0x9e3779b97f4a7c15
	return mix(k.state)
}

// Origin is an HTTP/1.1 origin serving Corpus bodies for GET /o/<key>
// on one or more loopback listeners.
type Origin struct {
	corpus *Corpus
	lns    []net.Listener
	hits   atomic.Int64
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// Traced run only: the serve interval of the latest request.
	stamping   atomic.Bool
	stampMu    sync.Mutex
	serveStart time.Time
	serveEnd   time.Time
}

// StartOrigin serves corpus on n loopback listeners.
func StartOrigin(corpus *Corpus, n int) (*Origin, error) {
	o := &Origin{corpus: corpus, conns: make(map[net.Conn]struct{})}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			o.Close()
			return nil, err
		}
		o.lns = append(o.lns, ln)
		o.wg.Add(1)
		go o.serve(ln)
	}
	return o, nil
}

// Addrs lists the listeners' "host:port" addresses.
func (o *Origin) Addrs() []string {
	addrs := make([]string, len(o.lns))
	for i, ln := range o.lns {
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// Hits is the number of requests served so far.
func (o *Origin) Hits() int64 { return o.hits.Load() }

// SetStamping turns the serve-interval timestamps on or off.
func (o *Origin) SetStamping(on bool) { o.stamping.Store(on) }

// LastServe returns the interval from the latest request being parsed to
// its response being written.
func (o *Origin) LastServe() (start, end time.Time) {
	o.stampMu.Lock()
	defer o.stampMu.Unlock()
	return o.serveStart, o.serveEnd
}

// Close stops the listeners, severs open connections and waits for the
// serving goroutines.
func (o *Origin) Close() {
	o.mu.Lock()
	o.closed = true
	for c := range o.conns {
		c.Close()
	}
	o.mu.Unlock()
	for _, ln := range o.lns {
		ln.Close()
	}
	o.wg.Wait()
}

func (o *Origin) serve(ln net.Listener) {
	defer o.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			c.Close()
			return
		}
		o.conns[c] = struct{}{}
		o.mu.Unlock()
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.serveConn(c)
			c.Close()
			o.mu.Lock()
			delete(o.conns, c)
			o.mu.Unlock()
		}()
	}
}

// smallBody is the largest body sent in one write with its head; larger
// ones go out as head then body, straight from the corpus.
const smallBody = 16 << 10

// serveConn answers requests on c until it ends or sends something that
// is not a GET for a key.
func (o *Origin) serveConn(c net.Conn) {
	in := make([]byte, 4096)
	var out []byte
	if o.corpus.size <= smallBody {
		out = make([]byte, len(o.corpus.head)+o.corpus.size)
		copy(out, o.corpus.head)
	}
	n := 0
	for {
		if n == len(in) {
			return // a head larger than the buffer is not ours
		}
		m, err := c.Read(in[n:])
		if err != nil {
			return
		}
		n += m
		for {
			end := bytes.Index(in[:n], headEnd)
			if end < 0 {
				break
			}
			key, ok := parseKey(in[:end])
			if !ok {
				return
			}
			var start time.Time
			stamping := o.stamping.Load()
			if stamping {
				start = time.Now()
			}
			o.hits.Add(1)
			body := o.corpus.Body(key)
			if out != nil {
				copy(out[len(o.corpus.head):], body)
				_, err = c.Write(out)
			} else if _, err = c.Write(o.corpus.head); err == nil {
				_, err = c.Write(body)
			}
			if err != nil {
				return
			}
			if stamping {
				now := time.Now()
				o.stampMu.Lock()
				o.serveStart, o.serveEnd = start, now
				o.stampMu.Unlock()
			}
			n = copy(in, in[end+len(headEnd):n])
		}
	}
}

// parseKey extracts the key from the head of "GET /o/<16 hex> HTTP/1.1".
func parseKey(head []byte) (uint64, bool) {
	i := bytes.Index(head, keyPrefix)
	if i < 0 || !bytes.HasPrefix(head, getPrefix) {
		return 0, false
	}
	i += len(pathPrefix)
	if len(head) < i+keyWidth {
		return 0, false
	}
	var key uint64
	for _, ch := range head[i : i+keyWidth] {
		var d byte
		switch {
		case ch >= '0' && ch <= '9':
			d = ch - '0'
		case ch >= 'a' && ch <= 'f':
			d = ch - 'a' + 10
		default:
			return 0, false
		}
		key = key<<4 | uint64(d)
	}
	return key, true
}

// Errors a Client reports for a response that arrived but is wrong.
var (
	ErrStatus = errors.New("loadgen: response status is not 200")
	ErrLength = errors.New("loadgen: response length is wrong")
	ErrBody   = errors.New("loadgen: response body does not match the corpus")
)

// Client is one closed-loop connection to the domestic proxy. Do sends
// one GET and reads and verifies its response without allocating.
type Client struct {
	conn   net.Conn
	corpus *Corpus
	// One prebuilt request per origin address; the key selects which.
	reqs   [][]byte
	keyOff []int
	rbuf   []byte
}

// Dial connects to the proxy (or, in tests, straight to an origin).
func Dial(addr string, corpus *Corpus) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, corpus: corpus, rbuf: make([]byte, 1024+corpus.size)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetDeadline bounds every later operation, so a wedged proxy fails the
// run instead of hanging it.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Tunnel opens a CONNECT tunnel to origin; later Do calls speak
// origin-form HTTP through it.
func (c *Client) Tunnel(origin string) error {
	if _, err := fmt.Fprintf(c.conn, "CONNECT %s HTTP/1.1\r\nHost: %s\r\n\r\n", origin, origin); err != nil {
		return err
	}
	n, end := 0, -1
	for end < 0 {
		m, err := c.conn.Read(c.rbuf[n:])
		if err != nil {
			return fmt.Errorf("loadgen: CONNECT %s: %w", origin, err)
		}
		n += m
		end = bytes.Index(c.rbuf[:n], headEnd)
	}
	if n < 12 || string(c.rbuf[9:12]) != "200" {
		return fmt.Errorf("loadgen: CONNECT %s refused: %q", origin, c.rbuf[:end])
	}
	if n != end+len(headEnd) {
		return fmt.Errorf("loadgen: CONNECT %s: %d bytes after the head", origin, n-end-len(headEnd))
	}
	c.setRequests("", []string{origin})
	return nil
}

// Direct makes later Do calls origin-form GETs on a connection that
// already reaches origin without a proxy's help.
func (c *Client) Direct(origin string) { c.setRequests("", []string{origin}) }

// Gateway makes later Do calls absolute-URI GETs (the proxy's cacheable
// path), spread over origins by key.
func (c *Client) Gateway(origins []string) { c.setRequests("http://", origins) }

func (c *Client) setRequests(scheme string, origins []string) {
	c.reqs, c.keyOff = nil, nil
	zeros := bytes.Repeat([]byte{'0'}, keyWidth)
	for _, o := range origins {
		target := pathPrefix
		if scheme != "" {
			target = scheme + o + pathPrefix
		}
		c.keyOff = append(c.keyOff, len("GET ")+len(target))
		c.reqs = append(c.reqs, []byte(fmt.Sprintf("GET %s%s HTTP/1.1\r\nHost: %s\r\n\r\n", target, zeros, o)))
	}
}

// Do performs one verified request/response for key.
func (c *Client) Do(key uint64) error {
	i := int(key % uint64(len(c.reqs)))
	req := c.reqs[i]
	field := req[c.keyOff[i] : c.keyOff[i]+keyWidth]
	for j, k := keyWidth-1, key; j >= 0; j, k = j-1, k>>4 {
		field[j] = hexDigits[k&15]
	}
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	buf := c.rbuf
	n, end := 0, -1
	for end < 0 {
		if n == len(buf) {
			return ErrLength
		}
		m, err := c.conn.Read(buf[n:])
		if err != nil {
			return err
		}
		from := n - len(headEnd) + 1
		if from < 0 {
			from = 0
		}
		n += m
		if j := bytes.Index(buf[from:n], headEnd); j >= 0 {
			end = from + j
		}
	}
	head := buf[:end]
	if len(head) < 12 || string(head[9:12]) != "200" {
		// A proxy's error body says why (a refused dial, an exhausted port
		// range); this path may allocate, the run is over.
		return fmt.Errorf("%w: %.300q", ErrStatus, buf[:n])
	}
	cl := -1
	if j := bytes.Index(head, contentLength); j >= 0 {
		cl = 0
		for _, ch := range head[j+len(contentLength):] {
			if ch < '0' || ch > '9' {
				break
			}
			cl = cl*10 + int(ch-'0')
		}
	}
	bodyStart := end + len(headEnd)
	if cl != c.corpus.size || bodyStart+cl > len(buf) || n > bodyStart+cl {
		return ErrLength
	}
	for n < bodyStart+cl {
		m, err := c.conn.Read(buf[n : bodyStart+cl])
		if err != nil {
			return err
		}
		n += m
	}
	if !bytes.Equal(buf[bodyStart:n], c.corpus.Body(key)) {
		return ErrBody
	}
	return nil
}
