package proxy

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/soe"
	"repro/internal/tagdict"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// callList is a soe.RecordSink that keeps the calls it receives, to
// replay them into another sink.
type callList []func(soe.RecordSink) error

func (l *callList) add(call func(soe.RecordSink) error) error {
	*l = append(*l, call)
	return nil
}

func (l *callList) Bind(c tagdict.Code, name []byte) error {
	name = bytes.Clone(name)
	return l.add(func(s soe.RecordSink) error { return s.Bind(c, name) })
}
func (l *callList) Open(c tagdict.Code, m core.Mode, g core.GroupID) error {
	return l.add(func(s soe.RecordSink) error { return s.Open(c, m, g) })
}
func (l *callList) Value(text []byte, m core.Mode, g core.GroupID) error {
	text = bytes.Clone(text)
	return l.add(func(s soe.RecordSink) error { return s.Value(text, m, g) })
}
func (l *callList) Close(m core.Mode, g core.GroupID) error {
	return l.add(func(s soe.RecordSink) error { return s.Close(m, g) })
}
func (l *callList) Resolve(g core.GroupID, deliver bool) error {
	return l.add(func(s soe.RecordSink) error { return s.Resolve(g, deliver) })
}
func (l *callList) Done() error { return l.add(soe.RecordSink.Done) }

// replay makes the kept calls on sink, in order.
func (l callList) replay(sink soe.RecordSink) error {
	for _, call := range l {
		if err := call(sink); err != nil {
			return err
		}
	}
	return nil
}

// recordCalls runs one card session for subject over the rig's document
// and returns every call the card made on its sink.
func (r *rig) recordCalls(t testing.TB, subject, docID string) callList {
	t.Helper()
	sess, err := soe.NewSession(r.card, docID, subject, nil, soe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Abort()
	var calls callList
	if err := sess.DeliverTo(&calls); err != nil {
		t.Fatal(err)
	}
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
	for idx := sess.NeedBlock(); idx >= 0; idx = sess.NeedBlock() {
		blk, err := r.store.ReadBlock(docID, idx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Feed(idx, blk); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.Done() {
		t.Fatal("card session did not finish")
	}
	return calls
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
// warmed collector takes a card's sink calls, finalizes the view and
// renders it into a reused buffer with a handful of allocations (the
// view's own slabs), however many nodes the view has. A tree, an event
// slice or a per-value string anywhere on the path would grow the count
// with the view.
func TestRenderAllocsFlatAcrossViewSize(t *testing.T) {
	measure := func(patients, atLeast int) float64 {
		calls := folderRig(t, patients).recordCalls(t, "nurse", "folder")
		col := NewCollector()
		var frame []byte
		var res Result
		run := func() {
			col.Reset()
			if err := calls.replay(col); err != nil {
				t.Fatal(err)
			}
			view, err := col.ViewInto(new(core.View))
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
