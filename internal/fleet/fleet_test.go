package fleet

import (
	"fmt"
	"sync"
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

func TestGatewayRefreshRules(t *testing.T) {
	w := newTestWorld(t)
	g := w.gateway(t, 0)
	defer g.Close()
	docID := w.docs[0]

	if err := g.RefreshRules("nurse", docID); err == nil {
		t.Error("refresh before provisioning must refuse (no implicit key grant)")
	}
	if _, err := g.Query("nurse", docID, ""); err != nil {
		t.Fatal(err)
	}
	v1 := g.RuleVersion("nurse", docID)
	if v1 < 0 {
		t.Fatalf("no rule version after provisioning: %d", v1)
	}

	// The owner revokes: version bumps, the card follows on refresh.
	pub := &proxy.Publisher{Store: w.store}
	strict := workload.MustParseRules("subject nurse\ndefault -\n+ //name")
	strict.DocID = docID
	strict.Version = uint32(v1) + 1
	if err := pub.GrantRules(w.keys[docID], strict); err != nil {
		t.Fatal(err)
	}
	if err := g.RefreshRules("nurse", docID); err != nil {
		t.Fatal(err)
	}
	if v2 := g.RuleVersion("nurse", docID); v2 != v1+1 {
		t.Errorf("rule version after refresh = %d, want %d", v2, v1+1)
	}
	// Refreshing again with the same stored blob is a no-op, never a
	// rollback error.
	if err := g.RefreshRules("nurse", docID); err != nil {
		t.Errorf("idempotent refresh failed: %v", err)
	}
}

// TestGatewayDocVersionRefresh: a delta re-publication bumps the served
// version; the gateway notices on the next query and refreshes the
// subject's rules exactly as RefreshRules would.
func TestGatewayDocVersionRefresh(t *testing.T) {
	w := newTestWorld(t)
	g := w.gateway(t, 0)
	defer g.Close()
	docID := w.docs[0]

	res, err := g.Query("nurse", docID, "")
	if err != nil {
		t.Fatal(err)
	}
	// observed is the latest document version the gateway served the
	// subject.
	observed := func() uint32 {
		g.mu.Lock()
		sp := g.pools["nurse"]
		g.mu.Unlock()
		sp.mu.Lock()
		defer sp.mu.Unlock()
		return sp.docVersions[docID]
	}
	if got := observed(); got != res.Version {
		t.Fatalf("observed version %d, served %d", got, res.Version)
	}
	v1 := g.RuleVersion("nurse", docID)

	// The owner re-publishes the document (delta) and re-grants tighter
	// rules alongside, the paper's combined update.
	pub := &proxy.Publisher{Store: w.store}
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 40, Patients: 6, VisitsPerPatient: 3})
	doc.Children = append(doc.Children, &xmlstream.Node{Name: "amendment",
		Children: []*xmlstream.Node{{Text: "revised after audit"}}})
	ri, err := pub.Republish(doc, docenc.EncodeOptions{DocID: docID, Key: w.keys[docID]})
	if err != nil {
		t.Fatal(err)
	}
	strict := workload.MustParseRules("subject nurse\ndefault -\n+ //name")
	strict.DocID = docID
	strict.Version = uint32(v1) + 1
	if err := pub.GrantRules(w.keys[docID], strict); err != nil {
		t.Fatal(err)
	}

	res2, err := g.Query("nurse", docID, "")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Version != ri.Version {
		t.Fatalf("served version %d after republish to %d", res2.Version, ri.Version)
	}
	st := g.SubjectStats("nurse")
	if st.VersionRefreshes != 1 {
		t.Fatalf("version refreshes = %d, want 1", st.VersionRefreshes)
	}
	if v2 := g.RuleVersion("nurse", docID); v2 != v1+1 {
		t.Fatalf("rule version %d after version-bump refresh, want %d", v2, v1+1)
	}
	if got := observed(); got != ri.Version {
		t.Fatalf("observed version %d, want %d", got, ri.Version)
	}
	// Note: the refreshed (stricter) rules apply from the NEXT session;
	// the query that observed the bump ran under the rules installed at
	// its start. A follow-up query filters under the new policy.
	res3, err := g.Query("nurse", docID, "")
	if err != nil {
		t.Fatal(err)
	}
	if res3.XML() == res2.XML() {
		t.Fatal("stricter refreshed rules did not change the delivered view")
	}
	st = g.SubjectStats("nurse")
	if st.VersionRefreshes != 1 {
		t.Fatalf("steady-state query counted a refresh: %d", st.VersionRefreshes)
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
