package netx

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestRealClock(t *testing.T) {
	c := RealClock{}
	a := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(a) {
		t.Error("clock did not advance")
	}
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Error("AfterFunc never fired")
	}
}

func TestRealTimerStop(t *testing.T) {
	c := RealClock{}
	tm := c.AfterFunc(time.Hour, func() { t.Error("cancelled timer fired") })
	if !tm.Stop() {
		t.Error("Stop returned false for pending timer")
	}
}

func TestGoSpawner(t *testing.T) {
	done := make(chan struct{})
	GoSpawner{}.Go(func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("spawned function never ran")
	}
}

func TestRealSyncCond(t *testing.T) {
	var mu sync.Mutex
	cond := RealSync{}.NewCond(&mu)
	ready := false
	done := make(chan struct{})
	go func() {
		mu.Lock()
		for !ready {
			cond.Wait()
		}
		mu.Unlock()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	ready = true
	cond.Signal()
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("cond waiter never woke")
	}
}

func TestWaitGroup(t *testing.T) {
	env := RealEnv()
	wg := env.NewWaitGroup()
	var n int
	var mu sync.Mutex
	for i := 0; i < 10; i++ {
		wg.Add(1)
		env.Spawn.Go(func() {
			defer wg.Done()
			mu.Lock()
			n++
			mu.Unlock()
		})
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if n != 10 {
		t.Errorf("n = %d", n)
	}
}

func TestWaitGroupZeroReturnsImmediately(t *testing.T) {
	wg := RealEnv().NewWaitGroup()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("Wait on empty group blocked")
	}
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(RealEnv())
	msg := []byte("through the pipe")
	go a.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
}

func TestPipeCloseGivesEOF(t *testing.T) {
	a, b := Pipe(RealEnv())
	go func() {
		a.Write([]byte("tail"))
		a.Close()
	}()
	data, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "tail" {
		t.Errorf("data = %q", data)
	}
}

func TestPipeWriteAfterCloseFails(t *testing.T) {
	a, b := Pipe(RealEnv())
	b.Close()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("write to closed pipe succeeded")
	}
}

func TestDialerFunc(t *testing.T) {
	called := false
	d := DialerFunc(func(network, address string) (net.Conn, error) {
		called = true
		return nil, nil
	})
	d.Dial("tcp", "x:1")
	if !called {
		t.Error("DialerFunc not invoked")
	}
}

// closeSignal is a net.Conn that reports its Close.
type closeSignal struct {
	net.Conn
	closed chan struct{}
}

func (c *closeSignal) Close() error { close(c.closed); return nil }

func TestDialBounded(t *testing.T) {
	env := RealEnv()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	// A dial that lands in time passes through, error included.
	conn, err := DialBounded(env, time.Minute, func() (net.Conn, error) { return a, nil })
	if conn != a || err != nil {
		t.Errorf("prompt dial = %v, %v", conn, err)
	}
	refused := io.ErrClosedPipe
	if _, err := DialBounded(env, time.Minute, func() (net.Conn, error) { return nil, refused }); err != refused {
		t.Errorf("dial error = %v, want it passed through", err)
	}
	// A non-positive bound dials inline.
	if conn, err := DialBounded(env, 0, func() (net.Conn, error) { return a, nil }); conn != a || err != nil {
		t.Errorf("unbounded dial = %v, %v", conn, err)
	}

	// A dial that outlives the bound is disowned, and the connection it
	// produces later is closed on arrival rather than leaked.
	release := make(chan struct{})
	late := &closeSignal{Conn: b, closed: make(chan struct{})}
	_, err = DialBounded(env, time.Millisecond, func() (net.Conn, error) {
		<-release
		return late, nil
	})
	if err != ErrDialTimeout {
		t.Fatalf("stalled dial: err = %v, want ErrDialTimeout", err)
	}
	close(release)
	select {
	case <-late.closed:
	case <-time.After(5 * time.Second):
		t.Error("late connection was never closed")
	}
}
