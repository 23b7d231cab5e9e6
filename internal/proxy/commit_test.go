package proxy

import (
	"bytes"
	"math/rand"
	"net"
	"testing"

	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/workload"
)

// TestRepublishOneFrameMatchesHandshake: the 200 seeded edits of
// TestRepublishRetainedMatchesFresh, each diffed against the stored
// version and committed three ways — as one commit frame, through the
// staged begin/put-blocks/commit handshake, and applied in process — over
// a MemStore, a FileStore, a block cache and a loopback pool. Every
// store ends every edit holding the same header and the same blocks as
// the in-process application.
func TestRepublishOneFrameMatchesHandshake(t *testing.T) {
	kinds := []struct {
		name string
		open func() dsp.Store
	}{
		{"mem", func() dsp.Store { return dsp.NewMemStore() }},
		{"file", func() dsp.Store {
			fs, err := dsp.NewFileStoreOptions(t.TempDir(), dsp.FileStoreOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = fs.Close() })
			return fs
		}},
		{"cache", func() dsp.Store { return dsp.NewCache(dsp.NewMemStore(), 1<<20) }},
		{"pool", func() dsp.Store {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := dsp.NewServer(dsp.NewMemStore())
			go func() { _ = srv.Serve(l) }()
			pool, err := dsp.DialPool(l.Addr().String(), 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = pool.Close(); _ = srv.Close() })
			return pool
		}},
	}
	type pair struct {
		name          string
		frame, staged dsp.Store
	}
	tree := workload.MedicalFolder(workload.MedicalConfig{Seed: 31, Patients: 8, VisitsPerPatient: 3})
	ref, _, err := docenc.Encode(tree, retainedOpts())
	if err != nil {
		t.Fatal(err)
	}
	var pairs []pair
	for _, k := range kinds {
		p := pair{name: k.name, frame: k.open(), staged: k.open()}
		for _, s := range []dsp.Store{p.frame, p.staged} {
			if err := s.PutDocument(ref); err != nil {
				t.Fatal(err)
			}
		}
		pairs = append(pairs, p)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		editTree(rng, tree)
		delta, _, err := docenc.DiffEncode(tree, retainedOpts(), ref)
		if err != nil {
			t.Fatal(err)
		}
		want, err := delta.Apply(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			h, err := p.frame.(dsp.DeltaCommitter).CommitDelta(delta)
			if err != nil || !h.Equal(&delta.Header) {
				t.Fatalf("edit %d, %s: one-frame commit answered %+v, %v", i, p.name, h, err)
			}
			up := p.staged.(dsp.DocUpdater)
			token, err := up.BeginUpdate(delta.Header, delta.BaseVersion)
			for _, r := range delta.Runs {
				if err == nil {
					err = up.PutBlocks(token, r.Start, r.Blocks)
				}
			}
			if err == nil {
				err = up.CommitUpdate(token)
			}
			if err != nil {
				t.Fatalf("edit %d, %s: handshake: %v", i, p.name, err)
			}
			for how, s := range map[string]dsp.Store{"one frame": p.frame, "handshake": p.staged} {
				h, err := s.Header(retainedDoc)
				if err != nil || !h.Equal(&want.Header) {
					t.Fatalf("edit %d, %s by %s: header %+v, %v; in process %+v", i, p.name, how, h, err, want.Header)
				}
				blocks, err := dsp.ReadBlockRange(s, retainedDoc, 0, h.NumBlocks())
				if err != nil {
					t.Fatal(err)
				}
				for j := range blocks {
					if !bytes.Equal(blocks[j], want.Blocks[j]) {
						t.Fatalf("edit %d, %s by %s: block %d differs from the in-process application", i, p.name, how, j)
					}
				}
			}
		}
		ref = want
	}
}
