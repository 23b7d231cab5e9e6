package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// testWorld publishes a few documents with per-subject rule sets and
// returns the store, the key table, and the serial-terminal oracle
// output for every (subject, doc, query) combination.
type testWorld struct {
	store    *dsp.MemStore
	keys     map[string]secure.DocKey
	subjects []string
	docs     []string
	queries  []string
	// oracle[subject|doc|query] = XML of a fresh serial session's query.
	oracle map[string]string
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	w := &testWorld{
		store:    dsp.NewMemStore(),
		keys:     map[string]secure.DocKey{},
		subjects: []string{"nurse", "doctor", "admin", "researcher"},
		docs:     []string{"folder-a", "folder-b"},
		queries:  []string{"", "//emergency"},
		oracle:   map[string]string{},
	}
	rules := map[string]string{
		"nurse":      "subject nurse\ndefault -\n+ /folder\n- //ssn\n- //report",
		"doctor":     "subject doctor\ndefault +\n- //ssn",
		"admin":      "subject admin\ndefault +",
		"researcher": "subject researcher\ndefault -\n+ //diagnosis",
	}
	pub := &proxy.Publisher{Store: w.store}
	for i, docID := range w.docs {
		doc := workload.MedicalFolder(workload.MedicalConfig{
			Seed: int64(40 + i), Patients: 6 + 2*i, VisitsPerPatient: 3,
		})
		key := secure.KeyFromSeed("fleet:" + docID)
		w.keys[docID] = key
		if _, err := pub.PublishDocument(doc, docenc.EncodeOptions{
			DocID: docID, Key: key, BlockPlain: 128, MinSkipBytes: 32,
		}); err != nil {
			t.Fatal(err)
		}
		for _, subject := range w.subjects {
			rs := workload.MustParseRules(rules[subject])
			rs.DocID = docID
			if err := pub.GrantRules(key, rs); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Serial oracle: a fresh card per subject, classic one-block loop.
	for _, subject := range w.subjects {
		c := card.New(card.Modern)
		for _, docID := range w.docs {
			if err := c.PutKey(docID, w.keys[docID]); err != nil {
				t.Fatal(err)
			}
			for _, q := range w.queries {
				xml, err := serialQuery(w.store, c, subject, docID, q)
				if err != nil {
					t.Fatalf("oracle %s/%s/%q: %v", subject, docID, q, err)
				}
				w.oracle[subject+"|"+docID+"|"+q] = xml
			}
		}
	}
	return w
}

// serialQuery is the oracle's query: a new session per query, so the
// oracle shares no re-armed state with the pooled sessions under test.
func serialQuery(store dsp.Store, c *card.Card, subject, docID, query string) (string, error) {
	sess := proxy.NewSession(store, c, soe.Options{}, 0)
	defer sess.Close()
	if err := sess.InstallRules(subject, docID); err != nil {
		return "", err
	}
	res, err := sess.Query(subject, docID, query)
	if err != nil {
		return "", err
	}
	return res.XML(), nil
}

func (w *testWorld) gateway(t *testing.T, prefetch int) *Gateway {
	t.Helper()
	g, err := New(Config{
		Store:    w.store,
		Keys:     FixedKeys(w.keys),
		Prefetch: prefetch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGatewayMatchesSerialTerminal hammers one gateway from many
// goroutines with mixed subjects, documents and queries, and asserts
// every result is byte-identical to a fresh serial session's output.
// Run under -race this is also the fleet's thread-safety test.
func TestGatewayMatchesSerialTerminal(t *testing.T) {
	w := newTestWorld(t)
	for _, prefetch := range []int{0, proxy.DefaultPrefetch} {
		t.Run(fmt.Sprintf("prefetch=%d", prefetch), func(t *testing.T) {
			g := w.gateway(t, prefetch)
			defer g.Close()

			const (
				workers = 16
				rounds  = 12
			)
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						subject := w.subjects[(wk+r)%len(w.subjects)]
						docID := w.docs[(wk*r+r)%len(w.docs)]
						query := w.queries[(wk+r*3)%len(w.queries)]
						res, err := g.Query(subject, docID, query)
						if err != nil {
							errCh <- fmt.Errorf("%s/%s/%q: %w", subject, docID, query, err)
							return
						}
						want := w.oracle[subject+"|"+docID+"|"+query]
						if got := res.XML(); got != want {
							errCh <- fmt.Errorf("%s/%s/%q diverges from the serial terminal:\ngot:  %s\nwant: %s",
								subject, docID, query, got, want)
							return
						}
					}
				}(wk)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			if got := g.Subjects(); got != len(w.subjects) {
				t.Errorf("fleet holds %d cards, want one per subject (%d)", got, len(w.subjects))
			}
			var queries int64
			for _, st := range g.Stats() {
				queries += st.Queries
				if st.Errors != 0 {
					t.Errorf("subject %s recorded %d errors", st.Subject, st.Errors)
				}
				if st.Queries > 0 && st.Meter.BytesToCard == 0 {
					t.Errorf("subject %s has queries but an empty meter", st.Subject)
				}
			}
			if queries != workers*rounds {
				t.Errorf("aggregated %d queries, want %d", queries, workers*rounds)
			}
		})
	}
}

func TestGatewayProvisionFailures(t *testing.T) {
	w := newTestWorld(t)
	g := w.gateway(t, 0)
	defer g.Close()

	if _, err := g.Query("nurse", "no-such-doc", ""); err == nil {
		t.Error("query for an unknown document must fail")
	}
	if _, err := g.Query("stranger", w.docs[0], ""); err == nil {
		t.Error("query for a subject without granted rules must fail")
	}
	// A failed provisioning must not poison the tenant: the same
	// subject with a valid document still works.
	if _, err := g.Query("nurse", w.docs[0], ""); err != nil {
		t.Errorf("valid query after a failed one: %v", err)
	}
}

// revoke re-publishes docID with one more element and grants the nurse
// a stricter rule set at the next version, the paper's combined update
// of content and rights, and returns the version it published.
func (w *testWorld) revoke(t *testing.T, docID string) uint32 {
	t.Helper()
	pub := &proxy.Publisher{Store: w.store}
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 40, Patients: 6, VisitsPerPatient: 3})
	doc.Children = append(doc.Children, &xmlstream.Node{Name: "amendment",
		Children: []*xmlstream.Node{{Text: "revised after audit"}}})
	strict := workload.MustParseRules("subject nurse\ndefault -\n+ //name")
	strict.DocID = docID
	strict.Version = 1
	if err := pub.GrantRules(w.keys[docID], strict); err != nil {
		t.Fatal(err)
	}
	ri, err := pub.Republish(doc, docenc.EncodeOptions{DocID: docID, Key: w.keys[docID]})
	if err != nil {
		t.Fatal(err)
	}
	return ri.Version
}

// rendezvousStore holds block reads while armed until n of them wait, so
// n queries of one subject are in flight at once and its pool has to
// serve them from n sessions.
type rendezvousStore struct {
	dsp.Store
	mu   sync.Mutex
	n    int
	open chan struct{}
}

func (s *rendezvousStore) arm(n int) {
	s.mu.Lock()
	s.n, s.open = n, make(chan struct{})
	s.mu.Unlock()
}

func (s *rendezvousStore) wait() {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return
	}
	s.n--
	open := s.open
	if s.n == 0 {
		close(open)
	}
	s.mu.Unlock()
	<-open
}

func (s *rendezvousStore) ReadBlock(docID string, idx int) ([]byte, error) {
	s.wait()
	return s.Store.ReadBlock(docID, idx)
}

func (s *rendezvousStore) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	s.wait()
	return s.Store.(dsp.BlockRangeReader).ReadBlocks(docID, start, count)
}

// TestGatewayDocVersionRefresh: a re-publication that carries a
// revocation reaches the first query that sees the new version, on every
// warm session of the subject. Two sessions serve version 1 at once; the
// owner then re-publishes and re-grants stricter rules, and the next
// query on each session must equal a fresh session's view under the new
// rules, each session making one refresh of its own.
func TestGatewayDocVersionRefresh(t *testing.T) {
	for _, prefetch := range []int{0, proxy.DefaultPrefetch} {
		t.Run(fmt.Sprintf("prefetch=%d", prefetch), func(t *testing.T) {
			w := newTestWorld(t)
			store := &rendezvousStore{Store: w.store}
			g, err := New(Config{Store: store, Keys: FixedKeys(w.keys), Prefetch: prefetch})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			docID := w.docs[0]

			// pair runs two queries of the nurse at once and returns their
			// views.
			pair := func() [2]string {
				store.arm(2)
				var (
					views [2]string
					errs  [2]error
					wg    sync.WaitGroup
				)
				for i := range views {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, err := g.Query("nurse", docID, "")
						if err == nil {
							views[i] = res.XML()
						}
						errs[i] = err
					}(i)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				return views
			}

			before := pair()
			for _, v := range before {
				if want := w.oracle["nurse|"+docID+"|"]; v != want {
					t.Fatalf("version 1 view diverges from the serial terminal:\ngot:  %s\nwant: %s", v, want)
				}
			}
			if st := g.SubjectStats("nurse"); st.SessionsLive != 2 || st.Provisions != 2 {
				t.Fatalf("%d sessions live, %d provisions, want 2 of each", st.SessionsLive, st.Provisions)
			}

			version := w.revoke(t, docID)
			fresh := card.New(card.Modern)
			if err := fresh.PutKey(docID, w.keys[docID]); err != nil {
				t.Fatal(err)
			}
			want, err := serialQuery(w.store, fresh, "nurse", docID, "")
			if err != nil {
				t.Fatal(err)
			}
			if want == before[0] {
				t.Fatal("the revocation does not change the nurse's view")
			}

			for i, v := range pair() {
				if v != want {
					t.Fatalf("warm session %d's first query of version %d runs under the revoked rules:\ngot:  %s\nwant: %s", i, version, v, want)
				}
			}
			st := g.SubjectStats("nurse")
			if st.VersionRefreshes != 2 || st.Provisions != 2 || st.Errors != 0 {
				t.Fatalf("after the revocation: %d refreshes, %d provisions, %d errors, want 2, 2 and 0",
					st.VersionRefreshes, st.Provisions, st.Errors)
			}

			// The version stands still from here on: no more refreshes.
			res, err := g.Query("nurse", docID, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.XML() != want || res.Version != version {
				t.Fatalf("steady-state query served version %d and a different view", res.Version)
			}
			if st := g.SubjectStats("nurse"); st.VersionRefreshes != 2 {
				t.Fatalf("steady-state query counted a refresh: %d", st.VersionRefreshes)
			}
		})
	}
}

// withholdStore fails every rule-set fetch once withhold is set: a store
// that keeps a revocation from the cards it serves.
type withholdStore struct {
	*dsp.MemStore
	withhold atomic.Bool
}

func (s *withholdStore) RuleSet(docID, subject string) ([]byte, error) {
	if s.withhold.Load() {
		return nil, errors.New("rule set withheld")
	}
	return s.MemStore.RuleSet(docID, subject)
}

// TestGatewayWithheldRefreshFailsClosed: when the store withholds the
// rule set a re-publication's revocation installed, a warm session must
// not go on serving under the rules it has: the query fails, with no
// view.
func TestGatewayWithheldRefreshFailsClosed(t *testing.T) {
	w := newTestWorld(t)
	store := &withholdStore{MemStore: w.store}
	g, err := New(Config{Store: store, Keys: FixedKeys(w.keys)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	docID := w.docs[0]
	if _, err := g.Query("nurse", docID, ""); err != nil {
		t.Fatal(err)
	}

	store.withhold.Store(true)
	w.revoke(t, docID)
	for i := 0; i < 2; i++ { // the warm session, then its replacement
		if res, err := g.Query("nurse", docID, ""); err == nil {
			t.Fatalf("query %d after a withheld revocation served a view:\n%s", i, res.XML())
		} else if res != nil {
			t.Fatalf("query %d failed (%v) but returned a result", i, err)
		}
	}
	if st := g.SubjectStats("nurse"); st.Errors != 2 || st.Queries != 1 || st.VersionRefreshes != 0 {
		t.Fatalf("%d errors, %d queries, %d refreshes, want 2, 1 and 0", st.Errors, st.Queries, st.VersionRefreshes)
	}
}

// landingStore lands a write inside a provisioning: once armed, the
// first rule-set fetch of landDoc runs land after reading its blob, so
// the write falls between a session's InstallRules and its first query.
// Block reads of holdDoc wait for release (the first one closes held),
// which keeps the session running that query checked out.
type landingStore struct {
	dsp.Store
	holdDoc, landDoc string
	held, release    chan struct{}
	holding          sync.Once
	armed            atomic.Bool
	land             func()
}

func (s *landingStore) RuleSet(docID, subject string) ([]byte, error) {
	sealed, err := s.Store.RuleSet(docID, subject)
	if docID == s.landDoc && s.armed.Swap(false) {
		s.land()
	}
	return sealed, err
}

func (s *landingStore) hold(docID string) {
	if docID == s.holdDoc {
		s.holding.Do(func() { close(s.held) })
		<-s.release
	}
}

func (s *landingStore) ReadBlock(docID string, idx int) ([]byte, error) {
	s.hold(docID)
	return s.Store.ReadBlock(docID, idx)
}

func (s *landingStore) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	s.hold(docID)
	return s.Store.(dsp.BlockRangeReader).ReadBlocks(docID, start, count)
}

// TestGatewayRefreshesRulesLandedAtProvisioning: a session added to a
// subject pool that already served version 0 is provisioned just before
// a revocation and re-publication land; its first query sees the new
// header and must run under the new rules, as a fresh session would.
func TestGatewayRefreshesRulesLandedAtProvisioning(t *testing.T) {
	w := newTestWorld(t)
	docID, other := w.docs[0], w.docs[1]
	store := &landingStore{Store: w.store, holdDoc: other,
		held: make(chan struct{}), release: make(chan struct{})}
	g, err := New(Config{Store: store, Keys: FixedKeys(w.keys)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Query("nurse", docID, ""); err != nil {
		t.Fatal(err)
	}

	// The warm session is kept busy on the other document, so the next
	// query of docID provisions a second session.
	var released sync.Once
	release := func() { released.Do(func() { close(store.release) }) }
	defer release()
	busy := make(chan error, 1)
	go func() {
		res, err := g.Query("nurse", other, "")
		if err == nil && res.XML() != w.oracle["nurse|"+other+"|"] {
			err = errors.New("the held query's view diverges from the serial terminal")
		}
		busy <- err
	}()
	<-store.held

	var version uint32
	store.landDoc, store.land = docID, func() { version = w.revoke(t, docID) }
	store.armed.Store(true)
	res, err := g.Query("nurse", docID, "")
	if err != nil {
		t.Fatal(err)
	}
	if version == 0 {
		t.Fatal("the revocation did not land during the provisioning")
	}
	fresh := card.New(card.Modern)
	if err := fresh.PutKey(docID, w.keys[docID]); err != nil {
		t.Fatal(err)
	}
	want, err := serialQuery(w.store, fresh, "nurse", docID, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != version || res.XML() != want {
		t.Fatalf("the new session's first query of version %d (served %d) runs under the revoked rules:\ngot:  %s\nwant: %s",
			version, res.Version, res.XML(), want)
	}

	release()
	if err := <-busy; err != nil {
		t.Fatal(err)
	}
	if st := g.SubjectStats("nurse"); st.SessionsLive != 2 || st.Provisions != 3 || st.VersionRefreshes != 1 {
		t.Fatalf("%d sessions live, %d provisions, %d refreshes, want 2, 3 and 1",
			st.SessionsLive, st.Provisions, st.VersionRefreshes)
	}
}

func TestGatewayClose(t *testing.T) {
	w := newTestWorld(t)
	g := w.gateway(t, 0)
	if _, err := g.Query("admin", w.docs[0], ""); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if _, err := g.Query("admin", w.docs[0], ""); err == nil {
		t.Error("closed gateway must refuse queries")
	}
}

// TestSharedDecryptContextRace hammers one tenant card's cached cipher
// context from many goroutines — the sharing the gateway sets up when it
// warms the context at provisioning and every session of the subject
// reuses it. Raw decrypts through the shared context run concurrently
// with gateway queries over the same card and with PutKey re-installs of
// the unchanged key (which must NOT invalidate the context), and every
// plaintext is checked against the one a separate context sealed.
// Run under -race this is the decrypt-pipeline thread-safety test.
func TestSharedDecryptContextRace(t *testing.T) {
	w := newTestWorld(t)
	g := w.gateway(t, proxy.DefaultPrefetch)
	defer g.Close()

	docID := w.docs[0]
	key := w.keys[docID]
	c := card.New(card.Modern)
	if err := c.PutKey(docID, key); err != nil {
		t.Fatal(err)
	}
	ctx, err := c.DecryptContext(docID)
	if err != nil {
		t.Fatal(err)
	}

	sealer, err := secure.NewBlockContext(key)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 32
	stored := make([][]byte, blocks)
	plains := make([][]byte, blocks)
	for i := range stored {
		plains[i] = []byte(fmt.Sprintf("shared-context block %d payload", i))
		stored[i], err = sealer.EncryptBlock(docID, 1, uint32(i), plains[i])
		if err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers+2)

	// Raw shared-context decrypt hammer.
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				i := (wk*11 + r*5) % blocks
				got := make([]byte, len(plains[i]))
				if err := ctx.DecryptBlockInto(got, docID, 1, uint32(i), stored[i]); err != nil {
					errCh <- fmt.Errorf("shared context block %d: %w", i, err)
					return
				}
				if string(got) != string(plains[i]) {
					errCh <- fmt.Errorf("shared context block %d diverges from its sealed plaintext", i)
					return
				}
			}
		}(wk)
	}
	// Same-key re-installs racing the readers: the cached context must
	// survive (only a rotated key drops it).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 40; r++ {
			if err := c.PutKey(docID, key); err != nil {
				errCh <- err
				return
			}
			if _, err := c.DecryptContext(docID); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Gateway traffic over the same document, sharing its own per-tenant
	// contexts across pipelined sessions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 10; r++ {
			subject := w.subjects[r%len(w.subjects)]
			res, err := g.Query(subject, docID, "")
			if err != nil {
				errCh <- err
				return
			}
			if want := w.oracle[subject+"|"+docID+"|"]; res.XML() != want {
				errCh <- fmt.Errorf("gateway result for %s diverges under context hammer", subject)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The context is still the cached one (same pointer), and rotating
	// the key really does drop it.
	again, err := c.DecryptContext(docID)
	if err != nil {
		t.Fatal(err)
	}
	if again != ctx {
		t.Error("re-installing the same key must keep the cached context")
	}
	rotated := secure.KeyFromSeed("rotated:" + docID)
	if err := c.PutKey(docID, rotated); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.DecryptContext(docID)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == ctx {
		t.Error("rotating the key must invalidate the cached context")
	}
}
