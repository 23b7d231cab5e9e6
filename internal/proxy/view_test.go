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

// FuzzDecodeRecords feeds arbitrary bytes to the record decoder and a
// collector, whole and cut at arbitrary points the way APDU responses
// cut them: nothing panics, and the two decodings agree on how far they
// got, on failing or not, and on the view.
func FuzzDecodeRecords(f *testing.F) {
	stream := folderRig(f, 1).recordStream(f, "nurse", "folder")
	f.Add(stream, []byte{7, 1, 200})
	f.Add(stream[:len(stream)/2], []byte{0})
	// A value record whose length field is 2^63+5: as an int it is
	// negative and once slipped past the bound check.
	f.Add([]byte{0x03, 0x00, 0x00, 0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'x'}, []byte{3})
	f.Add([]byte{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{})
	f.Add([]byte{0x02, 0x05, 0x00, 0x00, 0x03, 0x00, 0x00, 0x01, 'v', 0x04, 0x00, 0x00, 0x06}, []byte{1, 1, 1})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		whole := NewCollector()
		consumed, wholeErr := soe.DecodeRecordsPartial(data, whole)

		// A reader that gets the stream in chunks, as the card link cuts
		// it: append, decode what is complete, keep the rest.
		chunked := NewCollector()
		var buf []byte
		var chunkedErr error
		fed, decoded := 0, 0
		for i := 0; chunkedErr == nil && fed < len(data); i++ {
			n := len(data) - fed
			if i < len(cuts) {
				n = min(n, 1+int(cuts[i]))
			}
			buf = append(buf, data[fed:fed+n]...)
			fed += n
			var k int
			k, chunkedErr = soe.DecodeRecordsPartial(buf, chunked)
			buf = buf[k:]
			decoded += k
		}

		if (wholeErr != nil) != (chunkedErr != nil) {
			t.Fatalf("whole decoding: %v; chunked decoding: %v", wholeErr, chunkedErr)
		}
		if decoded != consumed {
			t.Fatalf("whole decoding consumed %d bytes, chunked %d", consumed, decoded)
		}
		if wholeErr != nil {
			return
		}
		wv, werr := whole.View()
		cv, cerr := chunked.View()
		if (werr != nil) != (cerr != nil) {
			t.Fatalf("whole view: %v; chunked view: %v", werr, cerr)
		}
		if werr != nil {
			return
		}
		if !wv.Tree().Equal(cv.Tree()) {
			t.Fatal("whole and chunked decoding assembled different views")
		}
		// Rendering may refuse (hostile records can put an attribute
		// after content) but must agree too.
		wx, werr := (&Result{view: wv}).AppendXML(nil)
		cx, cerr := (&Result{view: cv}).AppendXML(nil)
		if (werr != nil) != (cerr != nil) || !bytes.Equal(wx, cx) {
			t.Fatalf("renderings differ: %q (%v) vs %q (%v)", wx, werr, cx, cerr)
		}
	})
}
