package proxy

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// blockRun is one read a store served: count blocks from start.
type blockRun struct{ start, count int }

// runLog is a store that writes down the reads it serves — one entry per
// ReadBlock, one per ReadBlocks — and can be told to answer a batched
// read with other blocks than were asked for.
type runLog struct {
	*dsp.MemStore
	mu   sync.Mutex
	runs []blockRun
	// answer, when set, replaces what a batched read returns.
	answer func(docID string, start, count int) ([][]byte, error)
}

func (s *runLog) note(start, count int) {
	s.mu.Lock()
	s.runs = append(s.runs, blockRun{start, count})
	s.mu.Unlock()
}

// take returns the reads served since the last take.
func (s *runLog) take() []blockRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := s.runs
	s.runs = nil
	return runs
}

func (s *runLog) ReadBlock(docID string, idx int) ([]byte, error) {
	s.note(idx, 1)
	return s.MemStore.ReadBlock(docID, idx)
}

func (s *runLog) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	s.note(start, count)
	if s.answer != nil {
		return s.answer(docID, start, count)
	}
	return s.MemStore.ReadBlocks(docID, start, count)
}

// pullOptionSets are the card options the readahead differential runs
// under (soe's rearm tests use the same five).
var pullOptionSets = map[string]soe.Options{
	"default":   {},
	"no-skip":   {DisableSkip: true},
	"no-copy":   {DisableCopy: true},
	"ablated":   {DisableSkip: true, DisableCopy: true},
	"max-value": {MaxValue: 4096},
}

// TestReadaheadMatchesSerial: however long the prefetcher's runs grow,
// the card sees the serial pull — same view, same meter, same statistics
// — for every case of the pull suite, under every option set, on pooled
// sessions that have answered the other cases before.
func TestReadaheadMatchesSerial(t *testing.T) {
	cases := pullCases()
	for name, opts := range pullOptionSets {
		t.Run(name, func(t *testing.T) {
			r := pullRig(t, cases)
			serial := NewSession(r.store, r.card, opts, 0)
			piped := map[int]*Session{}
			for _, k := range []int{1, 3, DefaultPrefetch, 64} {
				piped[k] = NewSession(r.store, r.card, opts, k)
			}
			for _, pc := range cases {
				want, err := serial.Query(pc.subject, pc.docID, pc.query)
				if err != nil {
					t.Fatalf("%s: %v", pc.docID, err)
				}
				for k, s := range piped {
					got, err := s.Query(pc.subject, pc.docID, pc.query)
					if err != nil {
						t.Fatalf("%s prefetch=%d: %v", pc.docID, k, err)
					}
					what := fmt.Sprintf("%s prefetch=%d", pc.docID, k)
					sameResult(t, what, got, want)
					if useful := got.Stats.BlocksFetched - got.Stats.BlocksWasted; useful != want.Stats.BlocksFetched || got.Stats.BlocksWasted < 0 {
						t.Errorf("%s: fetched %d, wasted %d; the card consumed %d", what, got.Stats.BlocksFetched, got.Stats.BlocksWasted, want.Stats.BlocksFetched)
					}
					if opts.DisableSkip && got.Stats.BlocksWasted != 0 {
						t.Errorf("%s: a session that cannot skip wasted %d blocks", what, got.Stats.BlocksWasted)
					}
				}
			}
		})
	}
}

// gapRig publishes a document a card reads from end to end but for one
// denied subtree in the middle, long enough that the skip outruns
// whatever the pipeline can have buffered: items, the secret, items.
// It returns the rig, the log its terminal reads through, and the blocks
// either side of the gap.
func gapRig(t *testing.T) (r *rig, store *runLog, gapFrom, gapTo int) {
	t.Helper()
	items := func(n int) []*xmlstream.Node {
		out := make([]*xmlstream.Node, n)
		for i := range out {
			out[i] = &xmlstream.Node{Name: "item", Children: []*xmlstream.Node{{Text: fmt.Sprintf("entry %04d of the list", i)}}}
		}
		return out
	}
	doc := &xmlstream.Node{Name: "doc"}
	doc.Children = append(doc.Children, items(200)...)
	doc.Children = append(doc.Children, &xmlstream.Node{Name: "secret", Children: items(200)})
	doc.Children = append(doc.Children, items(100)...)
	rs := workload.MustParseRules("subject u\ndefault +\n- //secret")
	r = newRig(t, doc, "gap", card.Modern, docenc.EncodeOptions{BlockPlain: 64, MinSkipBytes: 32}, rs)
	store = &runLog{MemStore: r.store}
	r.sess = r.session(t, store, soe.Options{}, 0)

	// The serial pull shows which blocks the card asks for.
	if _, err := r.sess.Query("u", "gap", ""); err != nil {
		t.Fatal(err)
	}
	fed := store.take()
	for i := 1; i < len(fed); i++ {
		if fed[i].start != fed[i-1].start+1 {
			if gapTo != 0 {
				t.Fatalf("the card skips twice: blocks %d and %d", gapTo, fed[i].start)
			}
			gapFrom, gapTo = fed[i-1].start, fed[i].start
		}
	}
	return r, store, gapFrom, gapTo
}

// TestReadaheadRunLengths: runs start at the depth, double while the
// card reads on, stop growing at the limit, and start over at the depth
// after a redirect, which costs no more than the runs in flight.
func TestReadaheadRunLengths(t *testing.T) {
	const depth = 2
	limit := readaheadLimit(depth, 64)
	if limit != readaheadGrowth*depth {
		t.Fatalf("limit for 64-byte blocks at depth %d is %d, want %d", depth, limit, readaheadGrowth*depth)
	}
	r, store, gapFrom, gapTo := gapRig(t)
	if gapFrom < 4*limit || gapTo-gapFrom <= 3*limit {
		t.Fatalf("the card reads blocks 0..%d, then %d: too short a start or too short a skip for limit %d", gapFrom, gapTo, limit)
	}
	header, err := r.store.Header("gap")
	if err != nil {
		t.Fatal(err)
	}

	res, err := r.session(t, store, soe.Options{}, depth).Query("u", "gap", "")
	if err != nil {
		t.Fatal(err)
	}
	// Until the redirect the prefetcher walks on from block 0, after it
	// from the skip's target; either walk is contiguous and grows.
	next, want, redirected := 0, depth, false
	for i, run := range store.take() {
		if !redirected && run.start == gapTo {
			next, want, redirected = gapTo, depth, true
		}
		if expect := min(want, header.NumBlocks()-next); run.start != next || run.count != expect {
			t.Fatalf("read %d is %d blocks from %d, want %d from %d (redirected: %t)", i, run.count, run.start, expect, next, redirected)
		}
		next += run.count
		want = min(2*want, limit)
	}
	if !redirected {
		t.Fatalf("the prefetcher was never sent to block %d", gapTo)
	}
	if res.Stats.BlocksWasted > 3*limit {
		t.Errorf("one redirect wasted %d blocks, more than three runs of %d", res.Stats.BlocksWasted, limit)
	}

	// A session that cannot skip reads at the limit from the first run on.
	if _, err := r.session(t, store, soe.Options{DisableSkip: true}, depth).Query("u", "gap", ""); err != nil {
		t.Fatal(err)
	}
	for i, run := range store.take() {
		if expect := min(limit, header.NumBlocks()-i*limit); run.start != i*limit || run.count != expect {
			t.Fatalf("linear read %d is %d blocks from %d, want %d from %d", i, run.count, run.start, expect, i*limit)
		}
	}
}

// TestReadaheadTamperedBlockInLongRun: a bad block the prefetcher fetched
// inside a long run fails the query if the card asks for it and not
// otherwise — the skipped part of a run is never authenticated into a
// result, as in the serial pull.
func TestReadaheadTamperedBlockInLongRun(t *testing.T) {
	r, store, gapFrom, _ := gapRig(t)
	sess := r.session(t, store, soe.Options{}, 2)
	want, err := sess.Query("u", "gap", "")
	if err != nil {
		t.Fatal(err)
	}
	skipped := gapFrom + 3 // the run that carries the gap's start carries it too
	if err := r.store.Tamper("gap", skipped, 5); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Query("u", "gap", "")
	if err != nil {
		t.Fatalf("a tampered block the card skips failed the query: %v", err)
	}
	sameResult(t, "with a tampered block in the skipped part of a run", got, want)

	if err := r.store.Tamper("gap", gapFrom-3, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query("u", "gap", ""); !errors.Is(err, secure.ErrIntegrity) {
		t.Fatalf("a tampered block the card reads: %v", err)
	}
}

// TestReadaheadByteCap: with 4 KiB blocks a run stops growing at 64 KiB
// of stored bytes, not at eight times the depth; a depth beyond the cap
// is still what the caller asked for.
func TestReadaheadByteCap(t *testing.T) {
	doc := workload.MediaStream(workload.StreamConfig{Seed: 3, Segments: 60, PayloadBytes: 4000})
	rs := workload.MustParseRules("subject u\ndefault +")
	r := newRig(t, doc, "big", card.Modern, docenc.EncodeOptions{BlockPlain: 4096}, rs)
	store := &runLog{MemStore: r.store}
	header, err := r.store.Header("big")
	if err != nil {
		t.Fatal(err)
	}
	const stored = 4096 + secure.MACLen
	if header.NumBlocks() < 40 {
		t.Fatalf("document has %d blocks", header.NumBlocks())
	}

	if _, err := r.session(t, store, soe.Options{}, DefaultPrefetch).Query("u", "big", ""); err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, run := range store.take() {
		longest = max(longest, run.count)
	}
	if longest*stored > readaheadBytes || (longest+1)*stored <= readaheadBytes {
		t.Errorf("the longest run is %d blocks of %d stored bytes; the cap is %d bytes", longest, stored, readaheadBytes)
	}

	if _, err := r.session(t, store, soe.Options{}, 32).Query("u", "big", ""); err != nil {
		t.Fatal(err)
	}
	for i, run := range store.take() {
		if expect := min(32, header.NumBlocks()-32*i); run.count != expect {
			t.Errorf("read %d at depth 32 is %d blocks, want %d", i, run.count, expect)
		}
	}
}

// TestStoreRunLengthChecked: an in-process store is trusted with the
// bytes of a block, never with the pipeline's progress. A run of no
// blocks (which had prefetcher and consumer spin for ever) or of more
// than were asked for fails the query at once; a short run is consumed
// and the pipeline goes on from where it ends.
func TestStoreRunLengthChecked(t *testing.T) {
	// Everything is authorized: no skip, so no redirect, and the reads
	// the store serves are one contiguous walk.
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 11, Patients: 10, VisitsPerPatient: 4})
	r := newRig(t, doc, "folder", card.Modern, docenc.EncodeOptions{BlockPlain: 256}, workload.MustParseRules("subject nurse\ndefault +"))
	store := &runLog{MemStore: r.store}
	sess := r.session(t, store, soe.Options{}, DefaultPrefetch)
	want, err := sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	store.take()

	query := func() (*Result, error) {
		t.Helper()
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := sess.Query("nurse", "folder", "")
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			return o.res, o.err
		case <-time.After(10 * time.Second):
			t.Fatal("the query is still running after 10 s")
			return nil, nil
		}
	}

	store.answer = func(string, int, int) ([][]byte, error) { return nil, nil }
	if _, err := query(); err == nil || !strings.Contains(err.Error(), "with 0") {
		t.Errorf("a store that answers with no block: %v", err)
	}
	store.answer = func(docID string, start, count int) ([][]byte, error) {
		return store.MemStore.ReadBlocks(docID, start, count+1)
	}
	if _, err := query(); err == nil || !strings.Contains(err.Error(), "store answered") {
		t.Errorf("a store that answers with a block too many: %v", err)
	}
	store.answer = func(docID string, start, count int) ([][]byte, error) {
		return store.MemStore.ReadBlocks(docID, start, (count+1)/2)
	}
	store.take()
	got, err := query()
	if err != nil {
		t.Fatalf("a store that answers with short runs: %v", err)
	}
	sameResult(t, "short runs", got, want)
	next := 0
	for _, run := range store.take() {
		if run.start != next {
			t.Fatalf("after a short run the prefetcher asked for block %d, want %d", run.start, next)
		}
		next += (run.count + 1) / 2
	}
}
