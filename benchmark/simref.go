package main

import (
	"container/heap"
	"crypto/sha256"
	"sync"
	"time"
)

// simReference is the fixed work sim_sweep's speed is measured against:
// what a discrete-event simulator spends its time on — goroutines parked
// and resumed one at a time, small allocations, a priority queue, a hash
// over a packet-sized buffer — written against the standard library only,
// so no change to the program can move it. One ring runs per core.
type simReference struct {
	rings int
}

// ringSize is the number of goroutines a token is passed around.
const ringSize = 8

type refEvent struct {
	at      int64
	payload []byte
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// run passes a token hops times around each ring and returns the time
// taken.
func (s simReference) run(hops int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < s.rings; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ring(hops, seed)
		}(int64(r) + 1)
	}
	wg.Wait()
	return time.Since(start)
}

func ring(hops int, seed int64) {
	chans := make([]chan int, ringSize)
	for i := range chans {
		chans[i] = make(chan int)
	}
	done := make(chan struct{})
	for i := 0; i < ringSize; i++ {
		go func(i int) {
			var q refQueue
			clock := seed
			for left := range chans[i] {
				// One simulated event: schedule, fire, hash a packet.
				ev := &refEvent{at: clock ^ int64(left), payload: make([]byte, 1200)}
				heap.Push(&q, ev)
				if q.Len() > 64 {
					ev = heap.Pop(&q).(*refEvent)
				}
				sum := sha256.Sum256(ev.payload)
				clock += int64(sum[0]) + 1
				if left == 0 {
					close(done)
					continue
				}
				chans[(i+1)%ringSize] <- left - 1
			}
		}(i)
	}
	chans[0] <- hops
	<-done
	for _, c := range chans {
		close(c)
	}
}
