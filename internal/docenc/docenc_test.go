package docenc

import (
	"fmt"
	"testing"

	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

func testKey() secure.DocKey { return secure.KeyFromSeed("docenc-test") }

// keyContext builds the context a header is verified through.
func keyContext(t *testing.T, key secure.DocKey) *secure.BlockContext {
	t.Helper()
	ctx, err := secure.NewBlockContext(key)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	docs := map[string]*xmlstream.Node{
		"medical": workload.MedicalFolder(workload.MedicalConfig{Seed: 1, Patients: 5, VisitsPerPatient: 3}),
		"agenda":  workload.Agenda(workload.AgendaConfig{Seed: 1, Members: 4, EventsPerMember: 3}),
		"stream":  workload.MediaStream(workload.StreamConfig{Seed: 1, Segments: 8, PayloadBytes: 500}),
		"random": workload.RandomDocument(workload.TreeConfig{
			Seed: 1, Elements: 120, MaxDepth: 6, MaxFanout: 4, AttrProb: 0.3, TextProb: 0.7,
		}),
		"tiny": {Name: "a"},
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			c, info, err := Encode(doc, EncodeOptions{DocID: name, Key: testKey()})
			if err != nil {
				t.Fatal(err)
			}
			if info.PayloadBytes <= 0 || info.Nodes <= 0 {
				t.Errorf("implausible info: %+v", info)
			}
			back, err := DecodeDocument(c, testKey())
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(doc) {
				t.Fatal("round trip changed the document")
			}
		})
	}
}

func TestEncodeRoundTripRandomized(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 20 + int(seed)*7, MaxDepth: 7, MaxFanout: 5,
			AttrProb: 0.3, TextProb: 0.8,
		})
		for _, block := range []int{32, 128, 1024} {
			c, _, err := Encode(doc, EncodeOptions{
				DocID: "r", Key: testKey(), BlockPlain: block, MinSkipBytes: 24,
			})
			if err != nil {
				t.Fatalf("seed %d block %d: %v", seed, block, err)
			}
			back, err := DecodeDocument(c, testKey())
			if err != nil {
				t.Fatalf("seed %d block %d: %v", seed, block, err)
			}
			if !back.Equal(doc) {
				t.Fatalf("seed %d block %d: round trip changed document", seed, block)
			}
		}
	}
}

func TestEncodeOptionsValidation(t *testing.T) {
	doc := &xmlstream.Node{Name: "a"}
	if _, _, err := Encode(doc, EncodeOptions{}); err == nil {
		t.Error("missing DocID accepted")
	}
	if _, _, err := Encode(doc, EncodeOptions{DocID: "d", BlockPlain: 8}); err == nil {
		t.Error("absurd block size accepted")
	}
	if _, _, err := Encode(nil, EncodeOptions{DocID: "d"}); err == nil {
		t.Error("nil root accepted")
	}
	if _, _, err := Encode(&xmlstream.Node{Text: "t"}, EncodeOptions{DocID: "d"}); err == nil {
		t.Error("text root accepted")
	}
}

func TestHeaderRoundTripAndVerify(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 2, Members: 3, EventsPerMember: 2})
	c, _, err := Encode(doc, EncodeOptions{DocID: "agenda", Version: 9, Key: testKey()})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := c.Header.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h, n, err := UnmarshalHeader(append(hb, 0xEE))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(hb) {
		t.Errorf("consumed %d, want %d", n, len(hb))
	}
	if h.DocID != "agenda" || h.Version != 9 || h.PayloadLen != c.Header.PayloadLen {
		t.Errorf("header fields changed: %+v", h)
	}
	ctx := keyContext(t, testKey())
	if err := h.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	// Tampered geometry must fail authentication.
	h.PayloadLen--
	if err := h.Verify(ctx); err == nil {
		t.Error("tampered header accepted")
	}
}

func TestHeaderUnmarshalErrors(t *testing.T) {
	if _, _, err := UnmarshalHeader([]byte("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	// The previous format (SDS2, blocks sealed before the synthetic IV)
	// is refused, not migrated.
	old, err := (&Header{DocID: "d", Version: 1, BlockPlain: 64, PayloadLen: 10}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	old[3] = '2'
	if _, _, err := UnmarshalHeader(old); err == nil {
		t.Error("an SDS2 header accepted")
	}
	if _, _, err := UnmarshalHeader([]byte("SDS1")); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestContainerMarshalRoundTrip(t *testing.T) {
	doc := workload.Catalog(workload.CatalogConfig{Seed: 3, Categories: 3, ProductsPerCategory: 4})
	c, _, err := Encode(doc, EncodeOptions{DocID: "cat", Key: testKey()})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != c.StoredSize() {
		t.Errorf("StoredSize %d != marshaled %d", c.StoredSize(), len(blob))
	}
	back, err := UnmarshalContainer(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Blocks) != len(c.Blocks) {
		t.Fatalf("block count changed: %d -> %d", len(c.Blocks), len(back.Blocks))
	}
	tree, err := DecodeDocument(back, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(doc) {
		t.Fatal("container round trip changed document")
	}
	if _, err := UnmarshalContainer(blob[:len(blob)-4]); err == nil {
		t.Error("truncated container accepted")
	}
	if _, err := UnmarshalContainer(append(blob, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestIndexThresholdMonotone(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 5, Patients: 10, VisitsPerPatient: 3})
	var prev int = 1 << 30
	for _, min := range []int{16, 64, 256} {
		_, info, err := EncodePayload(doc, EncodeOptions{MinSkipBytes: min})
		if err != nil {
			t.Fatal(err)
		}
		if info.IndexedNodes > prev {
			t.Errorf("threshold %d indexed MORE nodes (%d > %d)", min, info.IndexedNodes, prev)
		}
		prev = info.IndexedNodes
	}
	_, info, err := EncodePayload(doc, EncodeOptions{DisableIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.IndexedNodes != 0 || info.IndexBytes != 0 {
		t.Error("DisableIndex must index nothing")
	}
}

func TestDecoderSkipContent(t *testing.T) {
	// Build <r><big>...</big><tail>x</tail></r>, skip big, land on tail.
	big := &xmlstream.Node{Name: "big"}
	for i := 0; i < 50; i++ {
		big.Children = append(big.Children, &xmlstream.Node{
			Name:     "item",
			Children: []*xmlstream.Node{{Text: fmt.Sprintf("content-%03d", i)}},
		})
	}
	doc := &xmlstream.Node{Name: "r", Children: []*xmlstream.Node{
		big,
		{Name: "tail", Children: []*xmlstream.Node{{Text: "x"}}},
	}}
	payload, _, err := EncodePayload(doc, EncodeOptions{MinSkipBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	dict, dec, err := ParsePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	// r open
	it, err := dec.Next()
	if err != nil || it.Kind != ItemOpen || dict.Name(it.Code) != "r" {
		t.Fatalf("first item: %+v, %v", it, err)
	}
	// big open, then skip it
	it, err = dec.Next()
	if err != nil || it.Kind != ItemOpen || dict.Name(it.Code) != "big" {
		t.Fatalf("second item: %+v, %v", it, err)
	}
	if it.Meta == nil {
		t.Fatal("big must carry an index record")
	}
	if err := dec.SkipContent(it.Meta); err != nil {
		t.Fatal(err)
	}
	// next must be tail's open
	it, err = dec.Next()
	if err != nil || it.Kind != ItemOpen || dict.Name(it.Code) != "tail" {
		t.Fatalf("after skip: %+v, %v", it, err)
	}
	if len(dec.hadMeta) != 2 {
		t.Errorf("depth after skip = %d, want 2", len(dec.hadMeta))
	}
}

func TestDecoderValueStreaming(t *testing.T) {
	text := make([]byte, 3000)
	for i := range text {
		text[i] = byte('a' + i%26)
	}
	doc := &xmlstream.Node{Name: "r", Children: []*xmlstream.Node{{Text: string(text)}}}
	payload, _, err := EncodePayload(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, dec, err := ParsePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if it, _ := dec.Next(); it.Kind != ItemOpen {
		t.Fatal("expected root open")
	}
	it, err := dec.Next()
	if err != nil || it.Kind != ItemValueStart || it.Size != len(text) {
		t.Fatalf("expected value start of %d bytes, got %+v", len(text), it)
	}
	var got []byte
	for {
		it, err = dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if it.Kind != ItemValueChunk {
			t.Fatalf("expected chunk, got %+v", it)
		}
		if len(it.Text) > ValueChunkSize {
			t.Fatalf("chunk of %d bytes exceeds limit", len(it.Text))
		}
		got = append(got, it.Text...)
		if it.Last {
			break
		}
	}
	if string(got) != string(text) {
		t.Fatal("streamed value differs from original")
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	doc := &xmlstream.Node{Name: "a"}
	payload, _, _ := EncodePayload(doc, EncodeOptions{})
	// Corrupt the structure opcode.
	payload[len(payload)-2] = 0x7F
	_, dec, err := ParsePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := dec.Next(); err != nil {
			return // rejected, good
		}
	}
	t.Error("garbage opcode never rejected")
}

func TestDecryptPayloadDetectsTruncation(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 4, Members: 3, EventsPerMember: 2})
	c, _, err := Encode(doc, EncodeOptions{DocID: "a", Key: testKey()})
	if err != nil {
		t.Fatal(err)
	}
	c.Blocks = c.Blocks[:len(c.Blocks)-1]
	if _, err := c.DecryptPayload(testKey()); err == nil {
		t.Error("truncated container accepted")
	}
}
