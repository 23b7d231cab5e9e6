package proxy

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/secure"
)

// TestRepublishRefusedCommitSharesNoKeystream: a commit frame the store
// received but did not apply is not lost to it. The writer's next
// re-publication seals another edit at the same version, and a writer
// that lost a race sealed its edit at the version the winner committed.
// For every (document, version, block) position both frames carry with
// different plaintexts, the store must not learn the plaintexts' XOR
// from the ciphertexts' — what one keystream used twice gives.
func TestRepublishRefusedCommitSharesNoKeystream(t *testing.T) {
	t.Run("retry", func(t *testing.T) {
		s, tree := newProbeStore(t)
		pub := &Publisher{Store: s}
		cut := errors.New("connection cut after the commit frame")
		refused := false
		s.commit = func(real func() error) error {
			if !refused {
				refused = true
				return cut
			}
			return real()
		}
		if _, err := pub.Republish(mutateTexts(tree, 3), retainedOpts()); !errors.Is(err, cut) {
			t.Fatalf("the refused commit returned %v", err)
		}
		ri, err := pub.Republish(mutateTexts(tree, 4), retainedOpts())
		if err != nil {
			t.Fatal(err)
		}
		if ri.Version != 1 {
			t.Fatalf("the retry committed version %d, want 1", ri.Version)
		}
		if len(s.frames) != 2 {
			t.Fatalf("the store received %d commit frames, want 2", len(s.frames))
		}
		noSharedKeystream(t, retainedKey, s.frames[0], s.frames[1])
	})
	t.Run("race", func(t *testing.T) {
		s, tree := newProbeStore(t)
		// Both frames are in before either is applied.
		var arrived sync.WaitGroup
		arrived.Add(2)
		s.arrive = func() {
			arrived.Done()
			arrived.Wait()
		}
		edits := [2]int{3, 4}
		errs := make([]error, 2)
		var done sync.WaitGroup
		for g := range edits {
			done.Add(1)
			go func() {
				defer done.Done()
				_, errs[g] = (&Publisher{Store: s}).Republish(mutateTexts(tree, edits[g]), retainedOpts())
			}()
		}
		done.Wait()
		lost := 0
		for _, err := range errs {
			switch {
			case errors.Is(err, dsp.ErrBaseMoved):
				lost++
			case err != nil:
				t.Fatal(err)
			}
		}
		if lost != 1 || len(s.frames) != 2 {
			t.Fatalf("%d publishers lost, %d frames arrived; want 1 and 2", lost, len(s.frames))
		}
		noSharedKeystream(t, retainedKey, s.frames[0], s.frames[1])
	})
}

// noSharedKeystream opens every block two commit frames of one version
// both carry and fails where two different plaintexts at one position
// have ciphertexts whose XOR is theirs, or where one plaintext sealed
// twice at a position gives two different blocks.
func noSharedKeystream(t *testing.T, key secure.DocKey, a, b *docenc.DeltaUpdate) {
	t.Helper()
	if a.Header.DocID != b.Header.DocID || a.Header.Version != b.Header.Version {
		t.Fatalf("frames for %q v%d and %q v%d share no position",
			a.Header.DocID, a.Header.Version, b.Header.DocID, b.Header.Version)
	}
	ctx, err := secure.NewBlockContext(key)
	if err != nil {
		t.Fatal(err)
	}
	blocks := func(d *docenc.DeltaUpdate) map[int][]byte {
		m := map[int][]byte{}
		for _, r := range d.Runs {
			for i, blk := range r.Blocks {
				m[r.Start+i] = blk
			}
		}
		return m
	}
	open := func(idx int, stored []byte) []byte {
		plain := make([]byte, len(stored)-secure.MACLen)
		if err := ctx.DecryptBlockInto(plain, a.Header.DocID, a.Header.Version, uint32(idx), stored); err != nil {
			t.Fatalf("block %d: %v", idx, err)
		}
		return plain
	}
	inB := blocks(b)
	differ := 0
	for idx, ca := range blocks(a) {
		cb, ok := inB[idx]
		if !ok {
			continue
		}
		pa, pb := open(idx, ca), open(idx, cb)
		if bytes.Equal(pa, pb) {
			if !bytes.Equal(ca, cb) {
				t.Fatalf("block %d: one plaintext sealed twice gives two blocks", idx)
			}
			continue
		}
		differ++
		shared := true
		for i := range min(len(pa), len(pb)) {
			shared = shared && ca[i]^cb[i] == pa[i]^pb[i]
		}
		if shared {
			t.Fatalf("block %d of %q v%d: XOR of the ciphertexts is the XOR of the plaintexts",
				idx, a.Header.DocID, a.Header.Version)
		}
	}
	if differ == 0 {
		t.Fatal("the frames carry no position with two different plaintexts")
	}
}
