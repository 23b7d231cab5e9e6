package docenc

import (
	"bytes"
	"testing"

	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// TestStreamingEncoderMatchesSeal: the streaming Encoder must produce a
// container byte-identical to the buffered EncodePayload+Seal pipeline
// (header and every stored block).
func TestStreamingEncoderMatchesSeal(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 5, Patients: 6, VisitsPerPatient: 3})
	opts := EncodeOptions{DocID: "stream", Version: 3, Key: secure.KeyFromSeed("k"), MinSkipBytes: 24}

	payload, pInfo, err := EncodePayload(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := Seal(payload, opts)
	if err != nil {
		t.Fatal(err)
	}

	streamed, sInfo, err := Encode(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sealed.Header.MarshalBinary()
	b, _ := streamed.Header.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatalf("streamed header differs from sealed header")
	}
	if len(streamed.Blocks) != len(sealed.Blocks) {
		t.Fatalf("streamed %d blocks, sealed %d", len(streamed.Blocks), len(sealed.Blocks))
	}
	for i := range sealed.Blocks {
		if !bytes.Equal(streamed.Blocks[i], sealed.Blocks[i]) {
			t.Fatalf("block %d differs between streamed and sealed encodings", i)
		}
	}
	if sInfo.PayloadBytes != pInfo.PayloadBytes || sInfo.IndexBytes != pInfo.IndexBytes ||
		sInfo.IndexedNodes != pInfo.IndexedNodes || sInfo.TextBytes != pInfo.TextBytes {
		t.Fatalf("info mismatch: streamed %+v, buffered %+v", sInfo, pInfo)
	}
}

// TestEncoderBlocksArriveInOrder: Run hands blocks out sequentially and
// exactly as many as the header geometry announces.
func TestEncoderBlocksArriveInOrder(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 8, Members: 5, EventsPerMember: 4})
	enc, err := NewEncoder(doc, EncodeOptions{DocID: "ord", Key: secure.KeyFromSeed("k")})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	if err := enc.Run(func(idx int, stored []byte) error {
		if idx != next {
			t.Fatalf("block %d arrived, want %d", idx, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != enc.NumBlocks() {
		t.Fatalf("emitted %d blocks, header says %d", next, enc.NumBlocks())
	}
	if err := enc.Run(func(int, []byte) error { return nil }); err == nil {
		t.Fatal("second Run accepted")
	}
}

// mutateValues rewrites a fraction of the document's text nodes in place
// (same length, different bytes) and returns the mutated copy.
func mutateValues(t *testing.T, root *xmlstream.Node, every int) *xmlstream.Node {
	t.Helper()
	cp := cloneTree(root)
	n := 0
	var walk func(*xmlstream.Node)
	walk = func(x *xmlstream.Node) {
		for _, c := range x.Children {
			if c.IsText() {
				if n++; n%every == 0 && len(c.Text) > 0 {
					b := []byte(c.Text)
					for i := range b {
						b[i] = 'a' + (b[i]+13)%26
					}
					c.Text = string(b)
				}
				continue
			}
			walk(c)
		}
	}
	walk(cp)
	return cp
}

func cloneTree(n *xmlstream.Node) *xmlstream.Node {
	cp := &xmlstream.Node{Name: n.Name, Text: n.Text}
	for _, c := range n.Children {
		cp.Children = append(cp.Children, cloneTree(c))
	}
	return cp
}

// TestDiffEncodeDelta: the delta applied to the old container must equal
// a decode of the new tree, reuse unchanged ciphertext, and keep every
// block authenticating under its recorded generation.
func TestDiffEncodeDelta(t *testing.T) {
	key := secure.KeyFromSeed("delta")
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 77, Patients: 10, VisitsPerPatient: 3})
	opts := EncodeOptions{DocID: "d", Key: key, BlockPlain: 128, MinSkipBytes: 32}
	old, _, err := Encode(doc, opts)
	if err != nil {
		t.Fatal(err)
	}

	mutated := mutateValues(t, doc, 20)
	delta, _, err := DiffEncode(mutated, opts, old)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Header.Version != old.Header.Version+1 {
		t.Fatalf("delta version %d, want %d", delta.Header.Version, old.Header.Version+1)
	}
	if delta.ChangedBlocks == 0 || delta.ChangedBlocks == delta.TotalBlocks {
		t.Fatalf("degenerate delta: %d/%d blocks changed", delta.ChangedBlocks, delta.TotalBlocks)
	}

	applied, err := delta.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged blocks must be the old ciphertext, byte for byte.
	changed := make(map[int]bool)
	for _, r := range delta.Runs {
		for i := range r.Blocks {
			changed[r.Start+i] = true
		}
	}
	for i := range applied.Blocks {
		if i < len(old.Blocks) && !changed[i] && !bytes.Equal(applied.Blocks[i], old.Blocks[i]) {
			t.Fatalf("unchanged block %d was rewritten", i)
		}
	}
	// The applied container must decode to exactly the mutated tree, and
	// a full republication of the same tree must decode identically.
	gotDelta, err := DecodeDocument(applied, key)
	if err != nil {
		t.Fatal(err)
	}
	fullOpts := opts
	fullOpts.Version = old.Header.Version + 1
	full, _, err := Encode(mutated, fullOpts)
	if err != nil {
		t.Fatal(err)
	}
	gotFull, err := DecodeDocument(full, key)
	if err != nil {
		t.Fatal(err)
	}
	xa, _ := xmlstream.Serialize(gotDelta.Events(), xmlstream.WriterOptions{})
	xb, _ := xmlstream.Serialize(gotFull.Events(), xmlstream.WriterOptions{})
	if xa != xb {
		t.Fatal("delta re-publish decodes differently from full re-publish")
	}
}

// TestDiffEncodeIdentical: a delta of an unchanged tree uploads nothing.
func TestDiffEncodeIdentical(t *testing.T) {
	key := secure.KeyFromSeed("same")
	doc := workload.Agenda(workload.AgendaConfig{Seed: 2, Members: 4, EventsPerMember: 3})
	opts := EncodeOptions{DocID: "same", Key: key}
	old, _, err := Encode(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta, _, err := DiffEncode(doc, opts, old)
	if err != nil {
		t.Fatal(err)
	}
	if delta.ChangedBlocks != 0 || len(delta.Runs) != 0 {
		t.Fatalf("identical tree produced %d changed blocks", delta.ChangedBlocks)
	}
	applied, err := delta.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDocument(applied, key); err != nil {
		t.Fatalf("version-bumped container stopped decoding: %v", err)
	}
}

// TestDiffEncodeGrowAndShrink: geometry changes (payload longer or
// shorter) still apply cleanly and decode to the new tree.
func TestDiffEncodeGrowAndShrink(t *testing.T) {
	key := secure.KeyFromSeed("grow")
	opts := EncodeOptions{DocID: "g", Key: key, BlockPlain: 64, MinSkipBytes: 32}
	small := workload.Agenda(workload.AgendaConfig{Seed: 3, Members: 3, EventsPerMember: 2})
	big := workload.Agenda(workload.AgendaConfig{Seed: 3, Members: 6, EventsPerMember: 4})

	for _, tc := range []struct {
		name     string
		from, to *xmlstream.Node
	}{{"grow", small, big}, {"shrink", big, small}} {
		old, _, err := Encode(tc.from, opts)
		if err != nil {
			t.Fatal(err)
		}
		delta, _, err := DiffEncode(tc.to, opts, old)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		applied, err := delta.Apply(old)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := DecodeDocument(applied, key)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, _ := xmlstream.Serialize(tc.to.Events(), xmlstream.WriterOptions{})
		have, _ := xmlstream.Serialize(got.Events(), xmlstream.WriterOptions{})
		if want != have {
			t.Fatalf("%s: applied delta decodes to the wrong tree", tc.name)
		}
	}
}

// TestGenRunsHeaderRoundTrip: a header with generation runs survives
// MarshalBinary/UnmarshalHeader and keeps its MAC.
func TestGenRunsHeaderRoundTrip(t *testing.T) {
	key := secure.KeyFromSeed("hdr")
	h := Header{DocID: "x", Version: 7, BlockPlain: 128, PayloadLen: 1000,
		GenRuns: []GenRun{{Count: 3, Gen: 2}, {Count: 4, Gen: 7}, {Count: 1, Gen: 5}}}
	h.MAC = keyContext(t, key).HeaderMAC(h.canonical())
	img, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, n, err := UnmarshalHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(img) {
		t.Fatalf("consumed %d of %d header bytes", n, len(img))
	}
	ctx := keyContext(t, key)
	if err := back.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint32{2, 2, 2, 7, 7, 7, 7, 5} {
		if got := back.BlockGen(i); got != want {
			t.Fatalf("BlockGen(%d) = %d, want %d", i, got, want)
		}
	}
	// Rolling one run's generation back must break the MAC.
	tampered := back
	tampered.GenRuns = append([]GenRun(nil), back.GenRuns...)
	tampered.GenRuns[1].Gen = 2
	if err := tampered.Verify(ctx); err == nil {
		t.Fatal("generation rollback passed header authentication")
	}
}
