package proxy

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/soe"
	"repro/internal/workload"
)

// gateStore holds the first block read it serves until release is
// closed, so a query can be kept in flight; entered is closed when that
// read arrives.
type gateStore struct {
	*dsp.MemStore
	once             sync.Once
	entered, release chan struct{}
}

func newGateStore(inner *dsp.MemStore) *gateStore {
	return &gateStore{MemStore: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *gateStore) wait() {
	s.once.Do(func() { close(s.entered) })
	<-s.release
}

func (s *gateStore) ReadBlock(docID string, idx int) ([]byte, error) {
	s.wait()
	return s.MemStore.ReadBlock(docID, idx)
}

func (s *gateStore) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	s.wait()
	return s.MemStore.ReadBlocks(docID, start, count)
}

// TestSessionLifecycle: a Session runs one query at a time and refuses
// once closed. A concurrent Query is refused as busy and Reset refuses
// while a query is in flight; a query already in flight when Close lands
// finishes normally, and the next Query is refused.
func TestSessionLifecycle(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 4, Patients: 6, VisitsPerPatient: 2})
	rs := workload.MustParseRules("subject u\ndefault +\n- //ssn")
	r := newRig(t, doc, "folder", card.Modern, docenc.EncodeOptions{BlockPlain: 128}, rs)
	want, err := r.sess.Query("u", "folder", "")
	if err != nil {
		t.Fatal(err)
	}

	idle := NewSession(r.store, r.card, soe.Options{}, 0)
	if err := idle.Reset(); err != nil {
		t.Fatalf("Reset of an idle session: %v", err)
	}
	idle.Close()
	if _, err := idle.Query("u", "folder", ""); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Query on a closed session: %v, want a refusal", err)
	}

	for _, prefetch := range []int{0, DefaultPrefetch} {
		t.Run(fmt.Sprintf("prefetch=%d", prefetch), func(t *testing.T) {
			store := newGateStore(r.store)
			sess := NewSession(store, r.card, soe.Options{}, prefetch)
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := sess.Query("u", "folder", "")
				done <- outcome{res, err}
			}()
			<-store.entered

			if _, err := sess.Query("u", "folder", ""); err == nil || !strings.Contains(err.Error(), "busy") {
				t.Errorf("concurrent Query: %v, want a busy refusal", err)
			}
			if err := sess.Reset(); err == nil {
				t.Error("Reset with a query in flight succeeded")
			}
			sess.Close()
			close(store.release)

			got := <-done
			if got.err != nil {
				t.Fatalf("the query in flight when Close landed: %v", got.err)
			}
			if got.res.XML() != want.XML() {
				t.Error("the query in flight when Close landed returned a different view")
			}
			if _, err := sess.Query("u", "folder", ""); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Errorf("Query after Close: %v, want a refusal", err)
			}
		})
	}
}
