package sds

// One testing.B benchmark per paper experiment (E1–E8, internal/bench).
// Each measures the experiment's hot kernel and reports the experiment's
// headline quantity as a custom metric; cmd/sdsbench prints the full
// tables the experiments produce.

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/accessrule"
	"repro/internal/bench"
	"repro/internal/card"
	"repro/internal/dissem"
	"repro/internal/docenc"
	"repro/internal/soe"
	"repro/internal/workload"
)

// BenchmarkE1RuleScaling measures pure-engine throughput (no crypto, no
// card) as rule count grows, with and without the index's rule
// suspension.
func BenchmarkE1RuleScaling(b *testing.B) {
	doc := workload.RandomDocument(workload.TreeConfig{
		Seed: 42, Elements: 3000, MaxDepth: 8, MaxFanout: 6, AttrProb: 0.3, TextProb: 0.7,
	})
	payload := bench.MustPayload(doc, docenc.EncodeOptions{MinSkipBytes: 32})
	for _, n := range []int{8, 32, 128} {
		cfg := workload.ProfileConfig(workload.ProfileDescendant, 7, n, nil)
		rs := workload.RandomRuleSet("bench", cfg)
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"index", false}, {"noindex", true}} {
			b.Run(fmt.Sprintf("rules=%d/%s", n, mode.name), func(b *testing.B) {
				var events int
				for i := 0; i < b.N; i++ {
					run, err := bench.RunEngine(payload, rs, nil, mode.disable)
					if err != nil {
						b.Fatal(err)
					}
					events = run.Events
				}
				b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkE2MemoryFootprint measures a full e-gate session and reports
// its secure-RAM peak.
func BenchmarkE2MemoryFootprint(b *testing.B) {
	doc := workload.RandomDocument(workload.TreeConfig{
		Seed: 404, Elements: 600, MaxDepth: 8, MaxFanout: 3, TextProb: 0.5, AttrProb: 0.2,
	})
	rs := workload.RandomRuleSet("bench",
		workload.ProfileConfig(workload.ProfileShallow, 4, 8, nil))
	rig, err := bench.NewPullRig(doc, "e2", card.EGate, docenc.EncodeOptions{}, rs)
	if err != nil {
		b.Fatal(err)
	}
	var peak int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rig.Query("bench", "", soe.Options{})
		if err != nil {
			b.Fatal(err)
		}
		peak = res.Stats.Session.RAMPeak
	}
	b.ReportMetric(float64(peak), "RAM-peak-bytes")
}

// BenchmarkE3SkipBenefit measures the pull path at 25% authorization,
// with and without the index, reporting blocks fetched.
func BenchmarkE3SkipBenefit(b *testing.B) {
	doc := bench.SectionedDocument(11, 24)
	rs := bench.SectionRules("bench", 5)
	rig, err := bench.NewPullRig(doc, "e3", card.EGate, docenc.EncodeOptions{}, rs)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts soe.Options
	}{
		{"index", soe.Options{}},
		{"noindex", soe.Options{DisableSkip: true, DisableCopy: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var blocks int
			for i := 0; i < b.N; i++ {
				res, err := rig.Query("bench", "", mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				blocks = res.Stats.BlocksFetched
			}
			b.ReportMetric(float64(blocks), "blocks-fetched")
		})
	}
}

// BenchmarkE4IndexOverhead measures encoding and reports the index's
// storage overhead in percent.
func BenchmarkE4IndexOverhead(b *testing.B) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 4, Patients: 40, VisitsPerPatient: 4})
	var overhead float64
	for i := 0; i < b.N; i++ {
		_, info, err := docenc.EncodePayload(doc, docenc.EncodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		overhead = 100 * float64(info.IndexBytes) / float64(info.PayloadBytes-info.IndexBytes)
	}
	b.ReportMetric(overhead, "index-overhead-%")
}

// BenchmarkE5PullLatency measures the full encrypted pull path and
// reports simulated e-gate milliseconds.
func BenchmarkE5PullLatency(b *testing.B) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 20, Patients: 20, VisitsPerPatient: 4})
	rs := workload.MustParseRules("subject nurse\ndefault -\n+ /folder\n- //ssn\n- //contact\n- //report")
	rig, err := bench.NewPullRig(doc, "e5", card.EGate, docenc.EncodeOptions{}, rs)
	if err != nil {
		b.Fatal(err)
	}
	var simMS float64
	for i := 0; i < b.N; i++ {
		res, err := rig.Query("nurse", "", soe.Options{})
		if err != nil {
			b.Fatal(err)
		}
		simMS = res.Stats.Time.Total().Seconds() * 1000
	}
	b.ReportMetric(simMS, "sim-egate-ms")
}

// BenchmarkE6PendingBuffer measures a pending-heavy query and reports the
// terminal's pending buffer in bytes.
func BenchmarkE6PendingBuffer(b *testing.B) {
	doc := workload.RandomDocument(workload.TreeConfig{
		Seed: 6, Elements: 800, MaxDepth: 6, MaxFanout: 4, TextProb: 0.8,
	})
	rs := workload.RandomRuleSet("bench",
		workload.ProfileConfig(workload.ProfilePredicate, 6, 16, nil))
	rig, err := bench.NewPullRig(doc, "e6", card.Modern, docenc.EncodeOptions{}, rs)
	if err != nil {
		b.Fatal(err)
	}
	var pending int64
	for i := 0; i < b.N; i++ {
		res, err := rig.Query("bench", "", soe.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pending = res.Stats.PendingBytes
	}
	b.ReportMetric(float64(pending), "pending-bytes")
}

// BenchmarkE7Dissemination measures a broadcast to one parental-control
// subscriber and reports the sustainable stream rate on e-gate hardware.
func BenchmarkE7Dissemination(b *testing.B) {
	doc := workload.MediaStream(workload.StreamConfig{Seed: 3, Segments: 60, PayloadBytes: 256})
	key := KeyFromSeed("bench-e7")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "s", Key: key, MinSkipBytes: 32})
	if err != nil {
		b.Fatal(err)
	}
	rs := workload.MustParseRules(`subject child` + "\n" + `default -` + "\n" + `+ //segment[@rating = "all"]`)
	rs.DocID = "s"
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := card.New(card.EGate)
		if err := c.PutKey("s", key); err != nil {
			b.Fatal(err)
		}
		if err := c.PutRuleSet(rs); err != nil {
			b.Fatal(err)
		}
		sub := dissem.NewSubscriber("child", c, nil, soe.Options{})
		recs, err := dissem.Broadcast(container, "child", []*dissem.Subscriber{sub})
		if err != nil {
			b.Fatal(err)
		}
		rate = float64(container.StoredSize()) / recs[0].Time.Total().Seconds() / 1024
	}
	b.ReportMetric(rate, "stream-KB/s")
}

// BenchmarkE8DynamicRules measures the two costs of a policy change: the
// sealed-blob upload of this system vs the bytes the static
// encryption-per-subset baseline would re-encrypt.
func BenchmarkE8DynamicRules(b *testing.B) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 9, Members: 20, EventsPerMember: 8})
	before := map[string]*accessrule.RuleSet{
		"alice": workload.MustParseRules("subject alice\ndefault +"),
		"bob":   workload.MustParseRules("subject bob\ndefault -\n+ /agenda\n- //phone\n- //notes"),
	}
	after := map[string]*accessrule.RuleSet{
		"alice": before["alice"],
		"bob":   workload.MustParseRules("subject bob\ndefault -\n+ /agenda\n- //phone"),
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ours, baseline := bench.PolicyChangeCost(doc, before, after, "bob")
		ratio = float64(baseline) / float64(ours)
	}
	b.ReportMetric(ratio, "baseline/ours-bytes")
}

// benchFolder is the repository benchmark's folder shape and encoding
// (benchmark/corpus.go): 30 patients × 4 visits, ≈ 35 KB in 132 blocks.
func benchFolder() (*Document, EncodeOptions) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 1000, Patients: 30, VisitsPerPatient: 4})
	return doc, EncodeOptions{DocID: "folder-00", Version: 1, Key: KeyFromSeed("folder-00"), BlockPlain: 256, MinSkipBytes: 32}
}

// BenchmarkEncode measures a full encoding of the benchmark folder:
// sizing pass, emit and the encryption of every block.
func BenchmarkEncode(b *testing.B) {
	doc, opts := benchFolder()
	var stored int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := docenc.Encode(doc, opts)
		if err != nil {
			b.Fatal(err)
		}
		stored = info.StoredBytes
	}
	b.ReportMetric(float64(stored), "stored-bytes")
}

// BenchmarkRepublish measures what a collaborator's edit costs its
// publisher: a long-lived Publisher re-publishing seeded one-field edits
// of the benchmark folder to an in-process store.
func BenchmarkRepublish(b *testing.B) {
	doc, opts := benchFolder()
	pub := &Publisher{Store: NewMemStore()}
	if _, err := pub.PublishDocument(doc, opts); err != nil {
		b.Fatal(err)
	}
	contacts := doc.Find("contact")
	rng := rand.New(rand.NewSource(1))
	var changed int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contacts[rng.Intn(len(contacts))].Children[0].Text = fmt.Sprintf("+33 1 %08d", rng.Intn(100_000_000))
		info, err := pub.Republish(doc, opts)
		if err != nil {
			b.Fatal(err)
		}
		changed += info.ChangedBlocks
	}
	b.ReportMetric(float64(changed)/float64(b.N), "blocks/commit")
}

// tripCounter is a store pool that counts its round trips: every call a
// re-publication can make costs one.
type tripCounter struct {
	*StorePool
	trips atomic.Int64
}

func (s *tripCounter) Header(docID string) (docenc.Header, error) {
	s.trips.Add(1)
	return s.StorePool.Header(docID)
}

func (s *tripCounter) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	s.trips.Add(1)
	return s.StorePool.ReadBlocks(docID, start, count)
}

func (s *tripCounter) CommitDelta(d *docenc.DeltaUpdate) (docenc.Header, error) {
	s.trips.Add(1)
	return s.StorePool.CommitDelta(d)
}

// BenchmarkRepublishRemote is BenchmarkRepublish on the deployed write
// path: the long-lived Publisher talks over a one-connection store pool
// on loopback to dspd's stack, a block cache in front of a durable
// FileStore with fsync on. Allocations count both ends of the
// connection; roundtrips/op is what one re-publication costs in store
// round trips — the commit frame alone once the base is retained.
func BenchmarkRepublishRemote(b *testing.B) {
	doc, opts := benchFolder()
	fs, err := NewFileStoreOptions(b.TempDir(), FileStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewStoreServer(NewStoreCache(fs, 0))
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	pool, err := DialStorePool(l.Addr().String(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	store := &tripCounter{StorePool: pool}
	pub := &Publisher{Store: store}
	if _, err := pub.PublishDocument(doc, opts); err != nil {
		b.Fatal(err)
	}
	contacts := doc.Find("contact")
	rng := rand.New(rand.NewSource(1))
	edit := func() {
		contacts[rng.Intn(len(contacts))].Children[0].Text = fmt.Sprintf("+33 1 %08d", rng.Intn(100_000_000))
		if _, err := pub.Republish(doc, opts); err != nil {
			b.Fatal(err)
		}
	}
	edit() // the first re-publication fetches its base
	store.trips.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit()
	}
	b.ReportMetric(float64(store.trips.Load())/float64(b.N), "roundtrips/op")
}
