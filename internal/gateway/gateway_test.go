package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

const testDoc = "gw-folder"

// ruleTemplates are the access profiles the churn subjects cycle
// through; every subject of one template sees the same authorized view,
// which is what lets a serial oracle check hundreds of subjects.
var ruleTemplates = []string{
	"subject T\ndefault +",
	"subject T\ndefault +\n- //ssn",
	"subject T\ndefault -\n+ //patient/name\n+ //visit/date",
	"subject T\ndefault -\n+ //emergency",
}

// world is a published document behind a loopback dsp server — the
// store side of the full deployment: gatewayd's fleet pulls blocks over
// real TCP through the pooled frame path.
type world struct {
	store *dsp.MemStore
	key   secure.DocKey
	// keys is what the daemon's fleet may provision: testDoc's key, and
	// whatever else a test publishes before calling gatewayd.
	keys     map[string]secure.DocKey
	dspAddr  string
	dspSrv   *dsp.Server
	dspCache *dsp.Cache
	// oracle[template] = serial-terminal XML for that access profile.
	oracle []string
}

// subjectName assigns subject i to its rule template.
func subjectName(i int) string { return fmt.Sprintf("subj-%03d", i) }

func templateOf(i int) int { return i % len(ruleTemplates) }

// newWorld publishes the document, grants each of n subjects its
// template's rules, computes the per-template oracle, and serves the
// store over loopback TCP.
func newWorld(t *testing.T, n int) *world {
	t.Helper()
	w := &world{store: dsp.NewMemStore(), key: secure.KeyFromSeed(testDoc)}
	w.keys = map[string]secure.DocKey{testDoc: w.key}
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 77, Patients: 5, VisitsPerPatient: 2})
	pub := &proxy.Publisher{Store: w.store}
	if _, err := pub.PublishDocument(doc, docenc.EncodeOptions{
		DocID: testDoc, Key: w.key, BlockPlain: 128, MinSkipBytes: 32,
	}); err != nil {
		t.Fatal(err)
	}
	// At least one subject per template, so the oracle pass below can
	// always query subject tmpl under template tmpl.
	if n < len(ruleTemplates) {
		n = len(ruleTemplates)
	}
	for i := 0; i < n; i++ {
		rs := workload.MustParseRules(ruleTemplates[templateOf(i)])
		rs.Subject = subjectName(i)
		rs.DocID = testDoc
		if err := pub.GrantRules(w.key, rs); err != nil {
			t.Fatal(err)
		}
	}
	// Serial oracle per template, straight against the in-process store.
	for tmpl := range ruleTemplates {
		c := card.New(card.Modern)
		if err := c.PutKey(testDoc, w.key); err != nil {
			t.Fatal(err)
		}
		// A new session per query: the reference shares no re-armed
		// state with the pooled sessions under test.
		sess := proxy.NewSession(w.store, c, soe.Options{}, 0)
		subject := subjectName(tmpl) // subject tmpl uses template tmpl
		if err := sess.InstallRules(subject, testDoc); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Query(subject, testDoc, "")
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		w.oracle = append(w.oracle, res.XML())
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.dspAddr = l.Addr().String()
	w.dspCache = dsp.NewCache(w.store, 16<<20)
	w.dspSrv = dsp.NewServer(w.dspCache)
	go func() { _ = w.dspSrv.Serve(l) }()
	t.Cleanup(func() { _ = w.dspSrv.Close() })
	return w
}

// gatewayd stands up the full daemon stack minus main(): dsp pool over
// loopback TCP, fleet session pool, wire server on its own loopback
// listener.
func (w *world) gatewayd(t *testing.T, fcfg fleet.Config) (*Server, string) {
	t.Helper()
	pool, err := dsp.DialPool(w.dspAddr, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	fcfg.Store = pool
	fcfg.Keys = fleet.FixedKeys(w.keys)
	if fcfg.Prefetch == 0 {
		fcfg.Prefetch = proxy.DefaultPrefetch
	}
	fl, err := fleet.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fl, ServerConfig{Label: "test"})
	srv.CacheStats = w.dspCache.Stats
	srv.StoreStats = pool.StoreStats
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		_ = srv.Close()
		fl.Close()
	})
	return srv, addr
}

// TestGatewaydChurnHammer is the session-recycling churn test: hundreds
// of subjects connect, query, and disconnect over loopback TCP, twice,
// so every subject's second round must land on recycled pool state.
// Results are checked against the serial oracle; afterwards the pool
// must be fully idle (no leaked checkouts), recycling must have
// happened, and ReapIdle must be able to empty the pool completely (a
// leaked frame or pin would keep a session's query marked in flight and
// show up here as occupancy — and -race covers the rest).
func TestGatewaydChurnHammer(t *testing.T) {
	const subjects = 256
	w := newWorld(t, subjects)
	srv, addr := w.gatewayd(t, fleet.Config{})

	const (
		workers = 32
		rounds  = 2 // reconnects: round 2 rides recycled sessions
		queries = 2
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for s := wk; s < subjects; s += workers {
					if err := churnOnce(addr, s, queries, w.oracle); err != nil {
						errCh <- fmt.Errorf("subject %d round %d: %w", s, r, err)
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	ps := srv.Fleet().PoolStats()
	if ps.SessionsInUse != 0 {
		t.Errorf("pool reports %d sessions still checked out after the hammer", ps.SessionsInUse)
	}
	if ps.Subjects != subjects {
		t.Errorf("pool holds %d subjects, want %d", ps.Subjects, subjects)
	}
	wantQueries := int64(subjects * rounds * queries)
	if ps.Queries != wantQueries {
		t.Errorf("pool served %d queries, want %d", ps.Queries, wantQueries)
	}
	if ps.Errors != 0 {
		t.Errorf("pool recorded %d errors", ps.Errors)
	}
	if ps.Recycles == 0 {
		t.Error("no session recycling happened across reconnect rounds")
	}
	if ps.Recycles < wantQueries {
		t.Errorf("recycles = %d, want >= %d (every successful query recycles)", ps.Recycles, wantQueries)
	}
	// Session reuse: each subject's queries run one after another, so only
	// a subject's first query provisions a card; every later one, across
	// reconnects, rides the pooled session.
	if reuse, want := 1-float64(ps.Provisions)/float64(ps.Queries), 1-1.0/(rounds*queries); reuse < want {
		t.Errorf("session reuse = %.3f (%d provisions for %d queries), want >= %.3f", reuse, ps.Provisions, ps.Queries, want)
	}
	snap := srv.Snapshot()
	if snap.WireSessions != 0 {
		t.Errorf("%d wire sessions leaked past their connections", snap.WireSessions)
	}
	if snap.Queries != wantQueries {
		t.Errorf("wire served %d queries, want %d", snap.Queries, wantQueries)
	}
	// Every session must be reapable: a stuck query or leaked checkout
	// would leave live-but-unreapable occupancy behind.
	reaped := srv.Fleet().ReapIdle(0)
	if after := srv.Fleet().PoolStats(); after.SessionsLive != 0 {
		t.Errorf("reaped %d sessions but %d still live", reaped, after.SessionsLive)
	}
}

// churnOnce is one subject's connect/query/disconnect cycle.
func churnOnce(addr string, subjIdx, queries int, oracle []string) error {
	c, err := Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	sess, err := c.Open(subjectName(subjIdx))
	if err != nil {
		return err
	}
	want := oracle[templateOf(subjIdx)]
	for q := 0; q < queries; q++ {
		res, err := sess.Query(testDoc, "")
		if err != nil {
			return err
		}
		if res.XML != want {
			return fmt.Errorf("result diverges from the serial oracle")
		}
		if res.BlocksFetched == 0 {
			return fmt.Errorf("query reported zero blocks fetched")
		}
	}
	return sess.Close()
}

// slowStore delays block reads so a query is reliably in flight when
// the drain test pulls the plug.
type slowStore struct {
	dsp.Store
	delay time.Duration
}

func (s *slowStore) ReadBlock(docID string, idx int) ([]byte, error) {
	time.Sleep(s.delay)
	return s.Store.ReadBlock(docID, idx)
}

func (s *slowStore) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	time.Sleep(s.delay)
	return s.Store.ReadBlocks(docID, start, count)
}

// TestGatewaydDrainMidQuery: Close must let an in-flight query finish
// and flush its response before the connection comes down, and refuse
// new connections afterwards.
func TestGatewaydDrainMidQuery(t *testing.T) {
	w := newWorld(t, 1)
	fl, err := fleet.New(fleet.Config{
		Store: &slowStore{Store: w.store, delay: 2 * time.Millisecond},
		Keys:  fleet.FixedKeys(map[string]secure.DocKey{testDoc: w.key}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	srv := NewServer(fl, ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go func() { _ = srv.Serve(l) }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(subjectName(0))
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *QueryResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := sess.Query(testDoc, "")
		resCh <- outcome{res, err}
	}()
	// Let the query reach the slow store, then drain while it is in
	// flight.
	time.Sleep(5 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()

	out := <-resCh
	if out.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", out.err)
	}
	if out.res.XML != w.oracle[0] {
		t.Error("drained query's result diverges from the oracle")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight query finished")
	}
	if srv.Snapshot().Queries != 1 {
		t.Errorf("drained server counted %d queries, want 1", srv.Snapshot().Queries)
	}
	// The listener is down: new connections must fail.
	if _, err := Dial(addr); err == nil {
		t.Error("drained server accepted a new connection")
	}
}

// TestGatewaydStats covers both stats surfaces: the wire opStats and
// the HTTP /stats handler must report pool, cache, meter and store
// metrics after traffic.
func TestGatewaydStats(t *testing.T) {
	w := newWorld(t, 4)
	srv, addr := w.gatewayd(t, fleet.Config{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		sess, err := c.Open(subjectName(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Query(testDoc, ""); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}

	check := func(name string, snap *Snapshot) {
		t.Helper()
		if snap.Queries != 4 {
			t.Errorf("%s: queries = %d, want 4", name, snap.Queries)
		}
		if snap.Pool.Subjects != 4 || snap.Pool.Recycles == 0 {
			t.Errorf("%s: pool metrics missing: %+v", name, snap.Pool)
		}
		if len(snap.Subjects) != 4 {
			t.Errorf("%s: %d subject entries, want 4", name, len(snap.Subjects))
		}
		for _, st := range snap.Subjects {
			if st.Queries > 0 && st.Meter.BytesToCard == 0 {
				t.Errorf("%s: subject %s has queries but an empty meter", name, st.Subject)
			}
		}
		if snap.Cache == nil || snap.Cache.Hits+snap.Cache.Misses == 0 {
			t.Errorf("%s: cache metrics missing", name)
		}
		if snap.Store == nil {
			t.Errorf("%s: store stats missing (%s)", name, snap.StoreError)
		} else if snap.Store.Documents != 1 {
			t.Errorf("%s: store reports %d documents, want 1", name, snap.Store.Documents)
		}
		if snap.Label != "test" {
			t.Errorf("%s: label = %q", name, snap.Label)
		}
	}

	// Wire surface.
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	check("opStats", snap)

	// HTTP surface.
	rec := httptest.NewRecorder()
	srv.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/stats returned %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/stats content type %q", ct)
	}
	var httpSnap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &httpSnap); err != nil {
		t.Fatalf("/stats is not valid JSON: %v", err)
	}
	check("/stats", &httpSnap)
	if !strings.Contains(rec.Body.String(), "sessions_idle") {
		t.Error("/stats JSON lacks pool occupancy fields")
	}
}

// TestGatewaydWireErrors: server-reported errors must come back as
// ServerError values and leave the connection healthy.
func TestGatewaydWireErrors(t *testing.T) {
	w := newWorld(t, 1)
	_, addr := w.gatewayd(t, fleet.Config{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Open(""); err == nil {
		t.Error("empty subject must refuse")
	}
	sess, err := c.Open(subjectName(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query("no-such-doc", ""); err == nil {
		t.Error("unknown document must refuse")
	} else if _, ok := err.(ServerError); !ok {
		t.Errorf("server-side failure surfaced as %T, want ServerError", err)
	}
	// The connection survived the errors.
	if res, err := sess.Query(testDoc, ""); err != nil {
		t.Fatalf("healthy query after server errors: %v", err)
	} else if res.XML != w.oracle[0] {
		t.Error("result diverges from the oracle")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err == nil {
		t.Error("double session close must refuse")
	}
}

// TestGatewaydUnserializableResult: a view that has no XML form — here
// a document published with an attribute after its element's text —
// must come back as a server error and be counted, not travel under
// status OK as a diagnostic the client takes for the document.
func TestGatewaydUnserializableResult(t *testing.T) {
	const badDoc = "attr-after-content"
	w := newWorld(t, 1)
	key := secure.KeyFromSeed(badDoc)
	w.keys[badDoc] = key
	pub := &proxy.Publisher{Store: w.store}
	doc := &xmlstream.Node{Name: "a", Children: []*xmlstream.Node{
		{Text: "content first"},
		{Name: "@late", Children: []*xmlstream.Node{{Text: "v"}}},
	}}
	if _, err := pub.PublishDocument(doc, docenc.EncodeOptions{DocID: badDoc, Key: key}); err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules("subject T\ndefault +")
	rs.Subject, rs.DocID = subjectName(0), badDoc
	if err := pub.GrantRules(key, rs); err != nil {
		t.Fatal(err)
	}
	srv, addr := w.gatewayd(t, fleet.Config{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(subjectName(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(badDoc, "")
	var serr ServerError
	if !errors.As(err, &serr) {
		t.Fatalf("unserializable view came back as (%+v, %v), want a ServerError", res, err)
	}
	if !strings.Contains(string(serr), "cannot be serialized") {
		t.Errorf("error does not say what failed: %v", serr)
	}
	snap := srv.Snapshot()
	if snap.Pool.Errors != 1 || snap.Queries != 0 {
		t.Errorf("after one failed query: pool errors %d, wire queries %d; want 1 and 0", snap.Pool.Errors, snap.Queries)
	}
	// The connection and the pooled session both survived.
	if res, err := sess.Query(testDoc, ""); err != nil {
		t.Fatalf("healthy query after the failure: %v", err)
	} else if res.XML != w.oracle[0] {
		t.Error("result diverges from the oracle")
	}
}
