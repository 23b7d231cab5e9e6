package dsp

// Cross-segment group commit. Each segment's walWriter already
// collapses concurrent barriers on its own file, but a FileStore spread
// over N segments still pays one fsync per dirty segment per commit:
// eight writers hitting eight segments issue eight barriers even though
// the disk could absorb them together. The groupCommitter turns
// durability waits into rounds: committers register the (writer,
// offset) they need durable and block; a dedicated syncer drains one
// round at a time, issuing a single fsync per dirty segment that covers
// every committer who joined. While a round's fsyncs are in flight,
// arriving committers accumulate into the next round — under load the
// batch grows and fsyncs-per-commit falls, with no timers and no added
// latency when the store is idle (a lone committer's round starts
// immediately, and a round with one dirty segment is synced on the
// syncer itself).

import (
	"sync"
	"sync/atomic"
)

// syncRound is one batch of durability waits: one entry per dirty
// segment, closed done once every barrier ran.
type syncRound struct {
	segs []roundSeg
	done chan struct{}
}

// roundSeg is the highest offset a round's waiters need durable in one
// segment's log, and the barrier's outcome.
type roundSeg struct {
	w   *walWriter
	off int64
	err error
}

// groupCommitter batches durability barriers across WAL segments.
type groupCommitter struct {
	mu      sync.Mutex
	next    *syncRound // accumulating round, nil when none pending
	stopped bool

	wake chan struct{} // 1-buffered doorbell for the syncer
	quit chan struct{}
	done chan struct{}

	// waits counts commits served through rounds; rounds counts rounds
	// executed. waits/rounds is the achieved batching factor. Both
	// mutate only under mu — a waiter is counted in the same critical
	// section that registers it, and a round is counted when drain pops
	// it — so statsSnapshot can read a consistent pair in which
	// waits >= rounds always holds (every popped round had at least one
	// registered-and-counted waiter).
	waits  atomic.Int64
	rounds atomic.Int64

	// testRoundGate, when set, runs at the head of every round — tests
	// use it to hold a round open while more committers pile into the
	// next one. Set before the first wait().
	testRoundGate func()
}

func newGroupCommitter() *groupCommitter {
	gc := &groupCommitter{
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go gc.run()
	return gc
}

// wait blocks until offset off of w's log is durable, sharing fsync
// barriers with every other commit in the same round.
func (gc *groupCommitter) wait(w *walWriter, off int64) error {
	// Already covered (or a NoSync store): no round needed.
	if w.noSync || w.synced.Load() >= off {
		return nil
	}
	gc.mu.Lock()
	if gc.stopped {
		gc.mu.Unlock()
		return w.syncTo(off)
	}
	r := gc.next
	if r == nil {
		r = &syncRound{done: make(chan struct{})}
		gc.next = r
	}
	i := 0
	for i < len(r.segs) && r.segs[i].w != w {
		i++
	}
	if i == len(r.segs) {
		r.segs = append(r.segs, roundSeg{w: w})
	}
	r.segs[i].off = max(r.segs[i].off, off)
	gc.waits.Add(1)
	gc.mu.Unlock()
	select {
	case gc.wake <- struct{}{}:
	default:
	}
	<-r.done
	return r.segs[i].err
}

// run is the syncer: it drains pending rounds until stopped, then
// drains one final time so no waiter is left blocked.
func (gc *groupCommitter) run() {
	defer close(gc.done)
	for {
		select {
		case <-gc.wake:
			gc.drain()
		case <-gc.quit:
			gc.drain()
			return
		}
	}
}

// drain executes rounds until none is pending. Arrivals during a
// round's barriers form the next round, so consecutive iterations here
// are where the batching pays off.
func (gc *groupCommitter) drain() {
	for {
		gc.mu.Lock()
		r := gc.next
		gc.next = nil
		if r != nil {
			gc.rounds.Add(1)
		}
		gc.mu.Unlock()
		if r == nil {
			return
		}
		gc.runRound(r)
	}
}

// runRound issues the round's barriers — one syncTo per dirty segment,
// in parallel since the segments are separate files: the first right
// here, every other on a goroutine of its own — and releases the
// waiters.
func (gc *groupCommitter) runRound(r *syncRound) {
	if gc.testRoundGate != nil {
		gc.testRoundGate()
	}
	var wg sync.WaitGroup
	for i := 1; i < len(r.segs); i++ {
		wg.Add(1)
		go func(rs *roundSeg) {
			defer wg.Done()
			rs.err = rs.w.syncTo(rs.off)
		}(&r.segs[i])
	}
	r.segs[0].err = r.segs[0].w.syncTo(r.segs[0].off)
	wg.Wait()
	close(r.done)
}

// statsSnapshot reads (waits, rounds) as one consistent pair under the
// mutex both counters mutate under.
func (gc *groupCommitter) statsSnapshot() (waits, rounds int64) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.waits.Load(), gc.rounds.Load()
}

// stop shuts the syncer down after a final drain; wait() calls arriving
// later fall back to a direct per-segment barrier.
func (gc *groupCommitter) stop() {
	gc.mu.Lock()
	if gc.stopped {
		gc.mu.Unlock()
		<-gc.done
		return
	}
	gc.stopped = true
	gc.mu.Unlock()
	close(gc.quit)
	<-gc.done
}
