package proxy

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// recordStream runs one card session for subject over the rig's document
// and returns everything the card sent back, as one record stream.
func (r *rig) recordStream(t testing.TB, subject, docID string) []byte {
	t.Helper()
	sess, err := soe.NewSession(r.card, docID, subject, nil, soe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Abort()
	header, err := r.store.Header(docID)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := header.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LoadHeader(hdr); err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for idx := sess.NeedBlock(); idx >= 0; idx = sess.NeedBlock() {
		blk, err := r.store.ReadBlock(docID, idx)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.Feed(idx, blk)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, out...)
	}
	if !sess.Done() {
		t.Fatal("card session did not finish")
	}
	return stream
}

// folderRig publishes a medical folder of the given size with one
// subject whose view keeps most of it (skips, structural tags and
// attributes included).
func folderRig(t testing.TB, patients int) *rig {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 11, Patients: patients, VisitsPerPatient: 4})
	rs := workload.MustParseRules("subject nurse\ndefault +\n- //ssn\n- //prescription")
	return newRig(t, doc, "folder", card.Modern, docenc.EncodeOptions{BlockPlain: 256, MinSkipBytes: 32}, rs)
}

func countNodes(n *xmlstream.Node) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// TestRenderAllocsFlatAcrossViewSize guards the one-pass result path: a
// warmed collector takes a card's record stream, finalizes the view and
// renders it into a reused buffer with a handful of allocations (the
// view's own slabs), however many nodes the view has. A tree, an event
// slice or a per-value string anywhere on the path would grow the count
// with the view.
func TestRenderAllocsFlatAcrossViewSize(t *testing.T) {
	measure := func(patients, atLeast int) float64 {
		stream := folderRig(t, patients).recordStream(t, "nurse", "folder")
		col := NewCollector()
		var frame []byte
		var res Result
		run := func() {
			col.Reset()
			if err := soe.DecodeRecords(stream, col); err != nil {
				t.Fatal(err)
			}
			view, err := col.View()
			if err != nil {
				t.Fatal(err)
			}
			res = Result{view: view}
			if frame, err = res.AppendXML(frame[:0]); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: the arena and the frame reach their size
		if n := countNodes(res.Tree()); n < atLeast {
			t.Fatalf("view of %d patients has %d nodes, want at least %d", patients, n, atLeast)
		}
		if res.XML() != string(frame) {
			t.Fatal("XML() and AppendXML differ")
		}
		return testing.AllocsPerRun(20, run)
	}
	small, large := measure(3, 100), measure(60, 2000)
	if small != large || large > 8 {
		t.Errorf("allocations per replay+render: %.0f for the small view, %.0f for the large one; want equal and at most 8", small, large)
	}
}

// BenchmarkSessionQueryXML is the terminal's whole result path on a
// pooled session: query, assemble, render into a reused frame.
func BenchmarkSessionQueryXML(b *testing.B) {
	r := folderRig(b, 30)
	s := NewSession(r.store, r.card, soe.Options{}, DefaultPrefetch)
	var frame []byte
	b.ReportAllocs()
	for b.Loop() {
		res, err := s.Query("nurse", "folder", "")
		if err != nil {
			b.Fatal(err)
		}
		if frame, err = res.AppendXML(frame[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
}

// countedPool counts the round trips a session makes to a remote store.
type countedPool struct {
	*dsp.Pool
	trips int
}

func (c *countedPool) Header(docID string) (docenc.Header, error) {
	c.trips++
	return c.Pool.Header(docID)
}

func (c *countedPool) ReadBlocksFrame(docID string, start, count int) (*dsp.BlockFrame, error) {
	c.trips++
	return c.Pool.ReadBlocksFrame(docID, start, count)
}

// BenchmarkSessionQueryRemote is BenchmarkSessionQueryXML with the store
// behind a loopback connection: a warmed session pulling pooled frames
// from a dsp.Server, where every run of the prefetcher is a round trip.
func BenchmarkSessionQueryRemote(b *testing.B) {
	r := folderRig(b, 30)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := dsp.NewServer(r.store)
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	pool, err := dsp.DialPool(l.Addr().String(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	store := &countedPool{Pool: pool}
	s := NewSession(store, r.card, soe.Options{}, DefaultPrefetch)
	var frame []byte
	b.ReportAllocs()
	for b.Loop() {
		res, err := s.Query("nurse", "folder", "")
		if err != nil {
			b.Fatal(err)
		}
		if frame, err = res.AppendXML(frame[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
	b.ReportMetric(float64(store.trips)/float64(b.N), "roundtrips/op")
}

// FuzzDecodeRecords feeds arbitrary whole streams to the record decoder
// and a collector: nothing panics, a genuine card stream decodes and
// renders, and any stream decodes, assembles and renders the same way
// (or fails the same way) every time.
func FuzzDecodeRecords(f *testing.F) {
	stream := folderRig(f, 1).recordStream(f, "nurse", "folder")
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	// A value record whose length field is 2^63+5: as an int it is
	// negative and once slipped past the bound check.
	f.Add([]byte{0x03, 0x00, 0x00, 0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'x'})
	f.Add([]byte{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x02, 0x05, 0x00, 0x00, 0x03, 0x00, 0x00, 0x01, 'v', 0x04, 0x00, 0x00, 0x06})

	f.Fuzz(func(t *testing.T, data []byte) {
		render := func() ([]byte, error) {
			col := NewCollector()
			if err := soe.DecodeRecords(data, col); err != nil {
				return nil, err
			}
			v, err := col.View()
			if err != nil {
				return nil, err
			}
			// Rendering may refuse (hostile records can put an attribute
			// after content), but the same way every time.
			return (&Result{view: v}).AppendXML(nil)
		}
		x1, err1 := render()
		if err1 != nil && bytes.Equal(data, stream) {
			t.Fatalf("the card's own stream: %v", err1)
		}
		x2, err2 := render()
		if (err1 != nil) != (err2 != nil) || !bytes.Equal(x1, x2) {
			t.Fatalf("two decodings of one stream differ: %q (%v) vs %q (%v)", x1, err1, x2, err2)
		}
	})
}
