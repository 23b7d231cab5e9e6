package main

import (
	"math/rand"
	"sync"
	"time"
)

// The open-loop figures are informational. Clients of this system hold
// a synchronous connection and wait for each reply, so the closed loop
// is their real shape and every bounded metric comes from it; on this
// small shared host an open loop's tail moved by a factor between runs
// of the same code. They are recorded so that a quieter host can take
// them up: latency from the due time at a fixed rate, the highest of a
// few fixed rates that keeps its tail under a limit without a growing
// backlog, and how late the generator itself ran.
var openLoopRates = []float64{60, 120, 180, 240}

const (
	// openLoopReportRate is the rate whose latency is reported.
	openLoopReportRate = 120
	// openLoopLimit is the tail latency a rate must stay under.
	openLoopLimit = 50 * time.Millisecond
)

// arrival is one scheduled query.
type arrival struct {
	due          time.Time
	subject, doc int
}

// openResult is one rate's outcome.
type openResult struct {
	lat, lag          latencies
	attempted, failed int
	firstErr          error
	// backlog is how many arrivals were still queued when the schedule
	// ended: with spare capacity it stays near zero.
	backlog int
}

// runOpen sends Poisson arrivals at rate for d over the readers'
// connections. Each query is timed from when it was due, so a stall
// charges every request it delays.
func runOpen(readers []*portalReader, rate float64, d time.Duration, rng *rand.Rand) *openResult {
	// Sized to twice the expected number of sends, so that the
	// generator never blocks on a slow system; an arrival that still
	// finds it full is counted as failed.
	queue := make(chan arrival, 2*int(rate*d.Seconds())+64)
	res := &openResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				_, verify, err := r.query(a.subject, a.doc)
				took := time.Since(a.due)
				if err == nil {
					err = verify()
				}
				mu.Lock()
				res.lat = append(res.lat, took)
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	subjects, docs := len(readers[0].corpus.subjects), len(readers[0].corpus.docIDs)
	for due := start; ; {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) > d {
			break
		}
		time.Sleep(time.Until(due))
		res.lag = append(res.lag, time.Since(due))
		res.attempted++
		select {
		case queue <- arrival{due: due, subject: rng.Intn(subjects), doc: rng.Intn(docs)}:
		default:
			mu.Lock()
			res.failed++
			mu.Unlock()
		}
	}
	res.backlog = len(queue)
	close(queue)
	wg.Wait()
	res.lat, res.lag = sortedLatencies(res.lat), sortedLatencies(res.lag)
	return res
}

// openLoop runs every rate for an equal share of d on fresh connections
// and adds the loadgen metrics.
func (p *portalHot) openLoop(d time.Duration, m map[string]float64, w *window) error {
	var readers []*portalReader
	defer func() { closeReaders(readers) }()
	for i := 0; i < p.clients; i++ {
		r, err := dialReader(p.rig.gwAddr, p.corpus, p.clients+2+i)
		if err != nil {
			return err
		}
		r.check = p.checkFirstVersion
		readers = append(readers, r)
	}
	rng := rand.New(rand.NewSource(p.corpus.seed*6700417 + 3))
	for _, rate := range openLoopRates {
		res := runOpen(readers, rate, d/time.Duration(len(openLoopRates)), rng)
		w.attempted += res.attempted
		w.failed += res.failed
		if w.firstErr == nil {
			w.firstErr = res.firstErr
		}
		tail, _ := res.lat.tail()
		if rate == openLoopReportRate {
			lagTail, _ := res.lag.tail()
			m["loadgen.open_p50_ms"] = ms(res.lat.pct(50))
			m["loadgen.open_p99_ms"] = ms(tail)
			m["loadgen.start_lag_p99_ms"] = ms(lagTail)
		}
		// A backlog of more than a tenth of a second's arrivals at the
		// end of the schedule means the queue was growing.
		if res.failed == 0 && tail <= openLoopLimit && float64(res.backlog) <= rate/10 {
			m["loadgen.slo_rate_qps"] = rate
		}
	}
	return nil
}
