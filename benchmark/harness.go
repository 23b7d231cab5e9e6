package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// instance is one workload bound to one seed. newX generates the inputs
// and the oracle's expectations from the seed (untimed); the same
// instance can then be set up, driven and closed several times, each
// time on a fresh rig.
type instance interface {
	// setup builds the rig in dir, publishes the inputs and warms up:
	// everything that happens before the first timed operation. Its
	// duration is setup_s.
	setup(dir string) error
	// run drives the closed loop for d with tracing off.
	run(d time.Duration) (*window, error)
	// layers runs the single-client traced pass and the layer probes
	// within roughly d, and returns the per-layer metrics by name.
	layers(dir string, d time.Duration, tr *tracer) (map[string]float64, *window, error)
	// close tears the rig down; dir is removed by whoever made it.
	close() error
}

// client is one closed-loop caller: it issues op, waits for the reply,
// and issues the next. op returns the payload bytes the reply delivered
// and, when the reply is to be judged against the oracle, a verify
// function that runs after the clock has stopped. An error, a refusal
// or an oracle mismatch is a failed operation.
type client struct {
	op func() (delivered int64, verify func() error, err error)
	// secondary marks a client whose operations are not the workload's
	// reported operation (the readers beside republish_mix's writer).
	secondary bool
	// outlast keeps the client going past the deadline until every
	// client without it has finished its last operation. The writer of
	// republish_mix needs it: it must not stop with a commit half made,
	// and a reader's last query may be retrying a torn read until the
	// commit in flight returns.
	outlast bool

	lat    []time.Duration
	failed int
	// firstErr keeps the first failure for the report.
	firstErr error
}

// maxConsecutiveFailures stops a client whose connection is gone, so a
// dead rig yields a short failed run and not a spin.
const maxConsecutiveFailures = 100

// progress is what the clients of a window have completed so far; the
// sampler reads it at every slice boundary.
type progress struct {
	reported, all, bytes atomic.Int64
}

func (c *client) loop(deadline time.Time, done *progress, othersDone <-chan struct{}) {
	for streak := 0; streak < maxConsecutiveFailures; {
		if !time.Now().Before(deadline) {
			if !c.outlast {
				return
			}
			select {
			case <-othersDone:
				return
			default:
			}
		}
		start := time.Now()
		n, verify, err := c.op()
		c.lat = append(c.lat, time.Since(start))
		done.all.Add(1)
		if !c.secondary {
			done.reported.Add(1)
		}
		if err == nil {
			done.bytes.Add(n)
			if verify != nil {
				err = verify()
			}
		}
		if err != nil {
			c.failed++
			streak++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		streak = 0
	}
}

// sliceLength is how often a window's progress is sampled. This host's
// disturbances last a fraction of a second to a few seconds; a rate
// taken as the median over quarter-second slices ignores them as long
// as they cover less than half of a window, where a rate over the whole
// window would carry every one of them.
const sliceLength = 250 * time.Millisecond

// sample is the cumulative progress at one slice boundary.
type sample struct {
	at                   time.Duration
	reported, all, bytes int64
	cpu                  time.Duration
}

// window is what one timed closed-loop window measured.
type window struct {
	// lat holds the reported operation's wall times, sorted; side those
	// of the secondary clients.
	lat, side latencies
	// samples are the slice boundaries, the window's start included.
	samples []sample
	// ops counts the operations of every client inside the window.
	// attempted adds the checks made after it (a reopened store's
	// documents); failed the operations and checks that did not produce
	// a verified result.
	ops, attempted, failed int
	firstErr               error
	// bytes is the payload delivered to the workload's consumers.
	bytes int64
	// mallocs is the process-wide allocation count over the window.
	mallocs uint64
}

// note counts one operation or check made outside a closed-loop window.
func (w *window) note(err error) {
	w.attempted++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
}

// absorb adds another window's operation counts to w's.
func (w *window) absorb(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// A rate read off a slice of n operations moves in steps of 1/n, and
// broadcast_fanout completes sixteen operations in a quarter of a second:
// its runs read 56, 60 or 64 broadcasts a second and nothing in between.
// Slices are therefore joined until one holds minSliceOps reported
// operations on average, as long as minSlices of them remain.
const (
	minSliceOps = 64
	minSlices   = 5
)

// slices returns the slice boundaries the rates are taken over: every
// sample, or every few of them for a workload of slow operations.
func (w *window) slices() []sample {
	n := len(w.samples) - 1
	if n < 1 {
		return w.samples
	}
	stride := 1
	if per := float64(w.samples[n].reported-w.samples[0].reported) / float64(n); per > 0 && per < minSliceOps {
		stride = int(math.Ceil(minSliceOps / per))
	}
	if stride = min(stride, n/minSlices); stride <= 1 {
		return w.samples
	}
	var out []sample
	for i := 0; i <= n; i += stride {
		out = append(out, w.samples[i])
	}
	return out
}

// perSlice applies f to every pair of neighbouring slice boundaries and
// returns the median of the results that are defined.
func (w *window) perSlice(f func(a, b sample) (float64, bool)) float64 {
	ss := w.slices()
	var vs []float64
	for i := 1; i < len(ss); i++ {
		if v, ok := f(ss[i-1], ss[i]); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// rate is the reported operations per second, the median over slices.
func (w *window) rate() float64 {
	return w.perSlice(func(a, b sample) (float64, bool) {
		return float64(b.reported-a.reported) / (b.at - a.at).Seconds(), true
	})
}

// runClients runs every client concurrently until d has passed and the
// operations then in flight have completed.
func runClients(cs []*client, d time.Duration) *window {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var done progress
	w := &window{}
	start := time.Now()
	take := func() {
		w.samples = append(w.samples, sample{
			at: time.Since(start), reported: done.reported.Load(), all: done.all.Load(),
			bytes: done.bytes.Load(), cpu: processCPU(),
		})
	}
	take()
	deadline := start.Add(d)
	var wg, others sync.WaitGroup
	othersDone := make(chan struct{})
	for _, c := range cs {
		wg.Add(1)
		if !c.outlast {
			others.Add(1)
		}
		go func() {
			defer wg.Done()
			if !c.outlast {
				defer others.Done()
			}
			c.loop(deadline, &done, othersDone)
		}()
	}
	finished := make(chan struct{})
	go func() {
		others.Wait()
		close(othersDone)
		wg.Wait()
		close(finished)
	}()
	tick := time.NewTicker(sliceLength)
	for running := true; running; {
		select {
		case <-tick.C:
			// The last, partial slice is dropped: a clock that stops
			// while operations drain would make it read slow.
			if time.Now().Before(deadline) {
				take()
			}
		case <-finished:
			running = false
		}
	}
	tick.Stop()
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs

	var lat, side []time.Duration
	for _, c := range cs {
		if c.secondary {
			side = append(side, c.lat...)
		} else {
			lat = append(lat, c.lat...)
		}
		w.attempted += len(c.lat)
		w.failed += c.failed
		if w.firstErr == nil {
			w.firstErr = c.firstErr
		}
	}
	w.ops, w.bytes = w.attempted, done.bytes.Load()
	w.lat, w.side = sortedLatencies(lat), sortedLatencies(side)
	return w
}

// endToEnd derives the end-to-end metrics of a run from the windows of
// its repetitions and their set-up times. Within a window, rates and CPU
// per operation are the median over its slices, latencies the
// percentiles of its samples; the run reports the median over the
// repetitions of each, so that neither a disturbed second nor a
// disturbed repetition decides it. It also returns the lowest tail
// percentile a repetition could support.
func endToEnd(ws []*window, setups []time.Duration) (map[string]float64, float64) {
	var rate, mbps, allocs, cpu, p50, p99, setup []float64
	tailPct := 99.0
	for _, w := range ws {
		rate = append(rate, w.rate())
		mbps = append(mbps, w.perSlice(func(a, b sample) (float64, bool) {
			return float64(b.bytes-a.bytes) / 1e6 / (b.at - a.at).Seconds(), true
		}))
		cpu = append(cpu, w.perSlice(func(a, b sample) (float64, bool) {
			return ms(b.cpu-a.cpu) / float64(b.all-a.all), b.all > a.all
		}))
		allocs = append(allocs, float64(w.mallocs)/float64(w.ops))
		tail, p := w.lat.tail()
		p50, p99 = append(p50, ms(w.lat.pct(50))), append(p99, ms(tail))
		tailPct = min(tailPct, p)
	}
	for _, s := range setups {
		setup = append(setup, s.Seconds())
	}
	return map[string]float64{
		"setup_s":       median(setup),
		"ops_per_s":     median(rate),
		"op_p50_ms":     median(p50),
		"op_p99_ms":     median(p99),
		"payload_mbps":  median(mbps),
		"allocs_per_op": median(allocs),
		"cpu_ms_per_op": median(cpu),
	}, tailPct
}
