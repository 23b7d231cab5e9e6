package bench

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/workload"
)

// E10 measures the trusted half of the deployment under concurrency: the
// paper's architecture is "one SOE per client, untrusted store shared by
// all", so a portal serving many subjects needs (a) a pull path that
// does not pay one store round trip per block, and (b) a gateway that
// runs many card sessions at once. The experiment compares the
// historical serial terminal (one ReadBlock RTT per demanded block)
// against the prefetching two-stage pipeline (batched runs, overlapped
// with card evaluation), both alone and behind a card-fleet gateway as
// the number of concurrent subjects grows — all over real loopback TCP.
//
// Like E9 this is wall-clock by construction; the workload is seeded.

// e10Subjects are the fleet tenants; their rules span linear scans and
// skip-heavy profiles so the pipeline's speculation waste shows up.
var e10Subjects = []struct {
	name  string
	rules string
}{
	{"admin", "subject admin\ndefault +"},
	{"nurse", "subject nurse\ndefault +\n- //ssn\n- //report"},
	{"doctor", "subject doctor\ndefault +\n- //ssn"},
	{"emergency", "subject emergency\ndefault -\n+ //emergency\n+ //patient/name"},
	{"billing", "subject billing\ndefault -\n+ //patient/name\n+ //visit/date"},
	{"research", "subject research\ndefault -\n+ //diagnosis"},
	{"audit", "subject audit\ndefault +\n- //contact"},
	{"triage", "subject triage\ndefault -\n+ //emergency"},
}

const e10Doc = "e10-folder"

// E10Rig is a loopback DSP plus the published document and granted rule
// sets the gateway experiment needs.
type E10Rig struct {
	Addr string
	Key  secure.DocKey

	srv *dsp.Server
}

// NewE10Rig publishes the document and serves it over loopback TCP with
// the scaled server defaults.
func NewE10Rig() (*E10Rig, error) {
	store := dsp.NewMemStore()
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 1000, Patients: 30, VisitsPerPatient: 4})
	r := &E10Rig{Key: secure.KeyFromSeed(e10Doc)}
	pub := &proxy.Publisher{Store: store}
	if _, err := pub.PublishDocument(doc, docenc.EncodeOptions{
		DocID: e10Doc, Key: r.Key, BlockPlain: 256, MinSkipBytes: 32,
	}); err != nil {
		return nil, err
	}
	for _, s := range e10Subjects {
		rs := workload.MustParseRules(s.rules)
		rs.DocID = e10Doc
		if err := pub.GrantRules(r.Key, rs); err != nil {
			return nil, err
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.Addr = l.Addr().String()
	r.srv = dsp.NewServer(dsp.NewCache(store, 32<<20))
	go func() { _ = r.srv.Serve(l) }()
	return r, nil
}

// Close stops the server and waits for in-flight requests.
func (r *E10Rig) Close() { _ = r.srv.Close() }

// Gateway dials a fresh connection pool and fronts it with a card-fleet
// gateway at the given pipeline depth (0 = serial terminals).
func (r *E10Rig) Gateway(conns, prefetch int) (*fleet.Gateway, *dsp.Pool, error) {
	pool, err := dsp.DialPool(r.Addr, conns)
	if err != nil {
		return nil, nil, err
	}
	g, err := fleet.New(fleet.Config{
		Store:    pool,
		Keys:     fleet.FixedKeys(map[string]secure.DocKey{e10Doc: r.Key}),
		Profile:  card.Modern,
		Prefetch: prefetch,
	})
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	return g, pool, nil
}

// Hammer runs `subjects` concurrent tenants, each issuing `passes` full
// pull queries through the gateway, and returns aggregate queries per
// second, the total speculative waste, and every query's wall-clock
// latency (unsorted) for percentile reporting.
func (r *E10Rig) Hammer(g *fleet.Gateway, subjects, passes int) (qps float64, wasted int64, lats []time.Duration, err error) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		firstE error
	)
	lats = make([]time.Duration, subjects*passes)
	start := time.Now()
	for i := 0; i < subjects; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subject := e10Subjects[i%len(e10Subjects)].name
			for p := 0; p < passes; p++ {
				qStart := time.Now()
				if _, err := g.Query(subject, e10Doc, ""); err != nil {
					mu.Lock()
					if firstE == nil {
						firstE = fmt.Errorf("subject %s: %w", subject, err)
					}
					mu.Unlock()
					return
				}
				lats[i*passes+p] = time.Since(qStart)
			}
		}(i)
	}
	wg.Wait()
	if firstE != nil {
		return 0, 0, nil, firstE
	}
	elapsed := time.Since(start).Seconds()
	for _, st := range g.Stats() {
		wasted += st.BlocksWasted
	}
	return float64(subjects*passes) / elapsed, wasted, lats, nil
}

// E10Pipeline compares the serial terminal against the prefetching
// pipeline, alone and at gateway fan-out, over loopback TCP. Recorded
// metrics: queries/s and p50/p99 query latency (informational — wall
// clock), pipelined-vs-serial speedup (gated ratio), and speculative
// waste in blocks (gated — deterministic for the seeded workload).
func E10Pipeline(rec *Recorder) []*Table {
	const passes = 6
	rig, err := NewE10Rig()
	if err != nil {
		panic(err)
	}
	defer rig.Close()

	// Table 1: one subject, pipeline depth sweep.
	t1 := &Table{
		ID:      "E10",
		Title:   "pull path: serial vs prefetching terminal (loopback TCP, one subject)",
		Columns: []string{"terminal", "queries/s", "blocks fetched", "wasted"},
		Notes: []string{
			"serial: one ReadBlock round trip per demanded block",
			"prefetch=K: batched runs of K blocks at first and after a skip past the buffer, doubling to 8K (64 KiB at most) while the card reads on; fetch overlapped with card evaluation",
			"wall-clock measurement (real network server); workload is seeded",
		},
	}
	for _, k := range []int{0, 4, proxy.DefaultPrefetch, 16} {
		g, pool, err := rig.Gateway(1, k)
		if err != nil {
			panic(err)
		}
		qps, _, _, err := rig.Hammer(g, 1, passes)
		if err != nil {
			panic(err)
		}
		st := g.SubjectStats(e10Subjects[0].name)
		label := "serial"
		if k > 0 {
			label = fmt.Sprintf("prefetch=%d", k)
		}
		rec.Record(fmt.Sprintf("qps_%s", label), "q/s", qps)
		rec.RecordLower(fmt.Sprintf("fetched_%s", label), "blocks", float64(st.BlocksFetched))
		t1.AddRow(label, fmt.Sprintf("%.1f", qps),
			fmt.Sprintf("%d", st.BlocksFetched), fmt.Sprintf("%d", st.BlocksWasted))
		g.Close()
		pool.Close()
	}

	// Table 2: gateway throughput as concurrent subjects grow.
	t2 := &Table{
		ID:    "E10",
		Title: "card-fleet gateway aggregate query throughput vs concurrent subjects (loopback TCP)",
		Columns: []string{"subjects", "serial q/s", "pipelined q/s", "speedup",
			"wasted blocks"},
		Notes: []string{
			fmt.Sprintf("pipelined: prefetch=%d terminals behind the gateway; serial: prefetch=0", proxy.DefaultPrefetch),
			"each subject runs its own provisioned card; the store connection pool is shared",
		},
	}
	for _, subjects := range []int{1, 2, 4, 8} {
		gs, poolS, err := rig.Gateway(subjects, 0)
		if err != nil {
			panic(err)
		}
		serialQPS, _, _, err := rig.Hammer(gs, subjects, passes)
		if err != nil {
			panic(err)
		}
		gs.Close()
		poolS.Close()

		gp, poolP, err := rig.Gateway(subjects, proxy.DefaultPrefetch)
		if err != nil {
			panic(err)
		}
		pipedQPS, wasted, lats, err := rig.Hammer(gp, subjects, passes)
		if err != nil {
			panic(err)
		}
		gp.Close()
		poolP.Close()

		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rec.Record(fmt.Sprintf("serial_qps_subjects%d", subjects), "q/s", serialQPS)
		rec.Record(fmt.Sprintf("pipelined_qps_subjects%d", subjects), "q/s", pipedQPS)
		rec.Record(fmt.Sprintf("pipelined_p50_subjects%d", subjects), "ms",
			float64(pctile(lats, 50))/float64(time.Millisecond))
		rec.Record(fmt.Sprintf("pipelined_p99_subjects%d", subjects), "ms",
			float64(pctile(lats, 99))/float64(time.Millisecond))
		rec.RecordHigher(fmt.Sprintf("speedup_subjects%d", subjects), "x", pipedQPS/serialQPS)
		rec.RecordLower(fmt.Sprintf("wasted_subjects%d", subjects), "blocks", float64(wasted))

		t2.AddRow(
			fmt.Sprintf("%d", subjects),
			fmt.Sprintf("%.1f", serialQPS),
			fmt.Sprintf("%.1f", pipedQPS),
			fmt.Sprintf("%.1fx", pipedQPS/serialQPS),
			fmt.Sprintf("%d", wasted),
		)
	}

	// Table 3: the card-side decrypt microbenchmark behind the pipeline's
	// prepared runs (gated allocs/block and batch-vs-serial ratio).
	t3 := e10Decrypt(rec)
	return []*Table{t1, t2, t3}
}
