// Package tap is the benchmark's border: a byte-counting TCP forwarder
// that stands between the domestic and the remote proxy, where the GFW
// sits in the paper. Everything that crosses the border crosses it, so
// its counters are the exact border traffic, and its read counts are a
// proxy for the syscalls the carrier costs. For the traced run it also
// timestamps each read so an operation can be split at the border.
package tap

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Direction of travel across the border.
const (
	Up   = 0 // domestic -> remote
	Down = 1 // remote -> domestic
)

// maxStamps bounds the per-direction read timestamps kept per armed
// operation; a bulk response crosses in many reads and only the first few
// place the operation's boundaries.
const maxStamps = 64

// Counts is a snapshot of one direction's traffic.
type Counts struct {
	BytesIn  int64 // read from the sending side
	BytesOut int64 // written to the receiving side
	Reads    int64 // Read calls that returned data
}

type direction struct {
	in, out, reads atomic.Int64
}

// Tap forwards every connection accepted on its listener to target.
type Tap struct {
	ln     net.Listener
	target string
	dirs   [2]direction
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// stamping is set only by the traced run; the untraced path pays one
	// atomic load per read for it.
	stamping atomic.Bool
	stampMu  sync.Mutex
	stamps   [2][]time.Time
}

// Listen starts a tap on a loopback port that forwards to target.
func Listen(target string) (*Tap, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &Tap{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	t.wg.Add(1)
	go t.serve()
	return t, nil
}

// Addr is the address the domestic proxy should dial instead of the
// remote's.
func (t *Tap) Addr() string { return t.ln.Addr().String() }

// Counts snapshots one direction.
func (t *Tap) Counts(dir int) Counts {
	d := &t.dirs[dir]
	return Counts{BytesIn: d.in.Load(), BytesOut: d.out.Load(), Reads: d.reads.Load()}
}

// Bytes is the border traffic so far, both directions.
func (t *Tap) Bytes() int64 { return t.dirs[Up].in.Load() + t.dirs[Down].in.Load() }

// Arm clears the read timestamps and starts recording them. The traced
// run arms the tap before each operation; with one operation in flight
// the stamps belong to it.
func (t *Tap) Arm() {
	t.stampMu.Lock()
	t.stamps[Up] = t.stamps[Up][:0]
	t.stamps[Down] = t.stamps[Down][:0]
	t.stampMu.Unlock()
	t.stamping.Store(true)
}

// Disarm stops recording and returns the read timestamps seen since Arm.
// The slices are reused by the next Arm.
func (t *Tap) Disarm() (up, down []time.Time) {
	t.stamping.Store(false)
	t.stampMu.Lock()
	defer t.stampMu.Unlock()
	return t.stamps[Up], t.stamps[Down]
}

// Close stops accepting, severs every forwarded connection and waits for
// the copy goroutines to end.
func (t *Tap) Close() {
	t.mu.Lock()
	t.closed = true
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.ln.Close()
	t.wg.Wait()
}

func (t *Tap) track(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *Tap) untrack(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

func (t *Tap) serve() {
	defer t.wg.Done()
	for {
		near, err := t.ln.Accept()
		if err != nil {
			return
		}
		far, err := net.Dial("tcp", t.target)
		if err != nil {
			near.Close()
			continue
		}
		if !t.track(near) || !t.track(far) {
			near.Close()
			far.Close()
			return
		}
		t.wg.Add(3)
		var pair sync.WaitGroup
		pair.Add(2)
		go t.pipe(Up, far, near, &pair)
		go t.pipe(Down, near, far, &pair)
		go func() {
			defer t.wg.Done()
			pair.Wait()
			near.Close()
			far.Close()
			t.untrack(near)
			t.untrack(far)
		}()
	}
}

// pipe copies src to dst until src ends, then half-closes dst so the
// peer sees the end of stream while the other direction keeps flowing.
func (t *Tap) pipe(dir int, dst, src net.Conn, pair *sync.WaitGroup) {
	defer t.wg.Done()
	defer pair.Done()
	d := &t.dirs[dir]
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if t.stamping.Load() {
				t.stamp(dir)
			}
			d.reads.Add(1)
			d.in.Add(int64(n))
			m, werr := dst.Write(buf[:n])
			d.out.Add(int64(m))
			if werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	if cw, ok := dst.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	// A failed write leaves src open with nobody reading it; drain so the
	// sender is not wedged until Close.
	io.Copy(io.Discard, src)
}

func (t *Tap) stamp(dir int) {
	now := time.Now()
	t.stampMu.Lock()
	if len(t.stamps[dir]) < maxStamps {
		t.stamps[dir] = append(t.stamps[dir], now)
	}
	t.stampMu.Unlock()
}
