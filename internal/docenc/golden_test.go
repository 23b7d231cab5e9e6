package docenc

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// updateGolden rewrites testdata/encoder_golden.txt from the encoder in
// the tree. The checked-in file was written by this test at e929482, the
// commit before the sizing pass moved into slabs: the encoder's output
// format is the stored document, so a rewrite of the encoder has to
// reproduce every byte.
var updateGolden = flag.Bool("update-golden", false, "rewrite the encoder's golden digests")

const goldenFile = "testdata/encoder_golden.txt"

func infoString(i *EncodeInfo) string {
	return fmt.Sprintf("payload=%d dict=%d index=%d structure=%d text=%d nodes=%d indexed=%d stored=%d flat=%d tags=%s",
		i.PayloadBytes, i.DictBytes, i.IndexBytes, i.StructureBytes, i.TextBytes, i.Nodes,
		i.IndexedNodes, i.StoredBytes, i.FlatIndexBytes, strings.Join(i.Dict.Names(), ","))
}

// goldenEdit is the seeded edit the delta cases apply: some values
// rewritten in place, and for two seeds in three a subtree dropped or a
// value lengthened, so the payload geometry shrinks and grows too.
func goldenEdit(root *xmlstream.Node, seed int64) *xmlstream.Node {
	rng := rand.New(rand.NewSource(seed))
	cp := cloneTree(root)
	var texts []*xmlstream.Node
	var parents []*xmlstream.Node
	var walk func(*xmlstream.Node)
	walk = func(x *xmlstream.Node) {
		if len(x.Children) > 1 {
			parents = append(parents, x)
		}
		for _, c := range x.Children {
			if c.IsText() {
				texts = append(texts, c)
				continue
			}
			walk(c)
		}
	}
	walk(cp)
	for i := 0; i < 1+len(texts)/16; i++ {
		if len(texts) == 0 {
			break
		}
		c := texts[rng.Intn(len(texts))]
		b := []byte(c.Text)
		for j := range b {
			b[j] = 'a' + (b[j]+13)%26
		}
		c.Text = string(b)
	}
	switch seed % 3 {
	case 1:
		if len(parents) > 0 {
			p := parents[rng.Intn(len(parents))]
			k := rng.Intn(len(p.Children))
			p.Children = append(p.Children[:k:k], p.Children[k+1:]...)
		}
	case 2:
		if len(texts) > 0 {
			c := texts[rng.Intn(len(texts))]
			c.Text += strings.Repeat("grown ", 1+rng.Intn(40))
		}
	}
	return cp
}

// goldenInputs are the benchmark's two document shapes under the
// options it encodes them with, and 20 random trees — a few with more
// than 64 distinct tags, so that a tag set spans several words — under
// ten option sets each.
func goldenInputs() (names []string, trees map[string]*xmlstream.Node, opts map[string]EncodeOptions) {
	trees, opts = make(map[string]*xmlstream.Node), make(map[string]EncodeOptions)
	add := func(name string, tree *xmlstream.Node, o EncodeOptions) {
		o.DocID = name
		o.Key = secure.KeyFromSeed(name)
		names = append(names, name)
		trees[name], opts[name] = tree, o
	}
	add("folder-30x4", workload.MedicalFolder(workload.MedicalConfig{Seed: 1000, Patients: 30, VisitsPerPatient: 4}),
		EncodeOptions{Version: 1, BlockPlain: 256, MinSkipBytes: 32})
	add("stream-120x512", workload.MediaStream(workload.StreamConfig{Seed: 1, Segments: 120, PayloadBytes: 512}),
		EncodeOptions{Version: 1, MinSkipBytes: 32})
	for seed := int64(1); seed <= 20; seed++ {
		cfg := workload.TreeConfig{
			Seed: seed, Elements: int(1 + (seed*seed*7)%700), MaxDepth: int(2 + seed%9),
			MaxFanout: int(1 + seed%7), AttrProb: 0.3, TextProb: 0.6,
		}
		if seed%4 == 0 {
			for i := 0; i < 150; i++ {
				cfg.Tags = append(cfg.Tags, fmt.Sprintf("t%03d", i))
			}
		}
		tree := workload.RandomDocument(cfg)
		add(fmt.Sprintf("random-%02d/noindex", seed), tree, EncodeOptions{Version: uint32(seed), DisableIndex: true})
		for _, skip := range []int{8, 32, 64} {
			for _, block := range []int{32, 128, 4096} {
				add(fmt.Sprintf("random-%02d/skip%d-block%d", seed, skip, block), tree,
					EncodeOptions{Version: uint32(seed), MinSkipBytes: skip, BlockPlain: block})
			}
		}
	}
	return names, trees, opts
}

// goldenEncode runs one input through Encode, EncodePayload and
// DiffEncode (of a seeded edit, against the container Encode produced)
// and returns SHA-256 over everything they return — header bytes, every
// stored block, the payload, the successor header with its generation
// runs and MAC, every re-encrypted block, the changed runs and the three
// EncodeInfos — followed by a summary a reader can compare by eye.
func goldenEncode(t *testing.T, name string, tree *xmlstream.Node, o EncodeOptions) string {
	t.Helper()
	h := sha256.New()
	header := func(hd *Header) {
		hb, err := hd.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(hb)
	}

	c, info, err := Encode(tree, o)
	if err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	header(&c.Header)
	for _, b := range c.Blocks {
		h.Write(b)
	}
	io.WriteString(h, infoString(info))

	payload, pinfo, err := EncodePayload(tree, o)
	if err != nil {
		t.Fatalf("%s: EncodePayload: %v", name, err)
	}
	h.Write(payload)
	io.WriteString(h, infoString(pinfo))

	edited := goldenEdit(tree, int64(len(name))+int64(o.Version))
	delta, dinfo, err := DiffEncode(edited, EncodeOptions{Key: o.Key, MinSkipBytes: o.MinSkipBytes, DisableIndex: o.DisableIndex}, c)
	if err != nil {
		t.Fatalf("%s: DiffEncode: %v", name, err)
	}
	header(&delta.Header)
	for _, r := range delta.Runs {
		fmt.Fprintf(h, "run %d+%d", r.Start, len(r.Blocks))
		for _, b := range r.Blocks {
			h.Write(b)
		}
	}
	fmt.Fprintf(h, "base=%d total=%d changed=%d bytes=%d", delta.BaseVersion, delta.TotalBlocks, delta.ChangedBlocks, delta.BytesChanged)
	io.WriteString(h, infoString(dinfo))
	return fmt.Sprintf("%x nodes=%d indexed=%d tags=%d payload=%d stored=%d delta=%d/%d",
		h.Sum(nil), info.Nodes, info.IndexedNodes, info.Dict.Len(), info.PayloadBytes, info.StoredBytes,
		delta.ChangedBlocks, delta.TotalBlocks)
}

// TestEncoderMatchesGolden: header, stored blocks, payload, delta and
// EncodeInfo are, byte for byte and count for count, what the encoder
// produced before its sizing pass was rewritten.
func TestEncoderMatchesGolden(t *testing.T) {
	names, trees, opts := goldenInputs()
	var got strings.Builder
	for _, name := range names {
		fmt.Fprintf(&got, "%s %s\n", name, goldenEncode(t, name, trees[name], opts[name]))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got.String(), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden file has %d lines, the test generates %d", len(want), len(lines))
	}
	var wide, moved int
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("\n got %s\nwant %s", line, want[i])
		}
		var tags, changed, total int
		if f := strings.Fields(line); len(f) == 8 {
			fmt.Sscanf(f[4], "tags=%d", &tags)
			fmt.Sscanf(f[7], "delta=%d/%d", &changed, &total)
		}
		if tags > 64 {
			wide++
		}
		if changed > 0 && changed < total {
			moved++
		}
	}
	if wide < 10 || moved < len(names)/3 {
		t.Errorf("the corpus is too tame: %d cases with a tag set wider than a word, %d partial deltas", wide, moved)
	}
}

// TestEncodeAllocsFlatAcrossDocumentSize: the encoder allocates per
// document, not per element. A folder four times as large costs Encode
// one more allocation per extra stored block — the block itself, which
// the caller keeps — and the diff against a plaintext base nothing at all
// beyond the blocks that changed. A diff through a plan kept from the
// previous one skips the dictionary and the slabs as well, and so does
// a publisher's steady state: each diff against the payload the one
// before returned, into the buffer that diff's base occupied, copying
// the records the edit left alone.
func TestEncodeAllocsFlatAcrossDocumentSize(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	// Each bound is the count measured at either size (63, 58, 28 and
	// 27) plus 15 %.
	figures := []struct {
		what  string
		bound float64
	}{
		{"Encode", 72},
		{"DiffEncodePayload", 66},
		{"DiffEncodePayload through a kept plan", 32},
		{"DiffEncodePayload through a kept plan, against its last payload", 31},
	}
	var fixed [2][4]float64
	for i, patients := range []int{30, 120} {
		tree := workload.MedicalFolder(workload.MedicalConfig{Seed: 1000, Patients: patients, VisitsPerPatient: 4})
		opts := EncodeOptions{DocID: "folder", Version: 1, Key: secure.KeyFromSeed("folder"), BlockPlain: 256, MinSkipBytes: 32}
		c, _, err := Encode(tree, opts)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := c.DecryptPayload(opts.Key)
		if err != nil {
			t.Fatal(err)
		}
		encode := testing.AllocsPerRun(20, func() {
			if _, _, err := Encode(tree, opts); err != nil {
				t.Fatal(err)
			}
		})
		// One value rewritten at its length: one or two blocks change.
		tree.Children[patients/2].Find("contact")[0].Children[0].Text = "+33 1 00000000"
		var changed int
		spare := make([]byte, 0, len(payload))
		var plan *Plan
		diffThrough := func() {
			d, _, _, err := DiffEncodePayload(tree, opts, nil, plan, &c.Header, payload, spare)
			if err != nil {
				t.Fatal(err)
			}
			changed = d.ChangedBlocks
		}
		diff := testing.AllocsPerRun(20, diffThrough)
		// AllocsPerRun's warm-up call fills the plan the counted ones keep.
		plan = new(Plan)
		kept := testing.AllocsPerRun(20, diffThrough)
		if changed == 0 || changed > 2 {
			t.Fatalf("%d patients: the edit changed %d blocks", patients, changed)
		}
		// The publisher's steady state: the value alternates between two
		// strings, so every diff changes one or two blocks.
		base, text := &c.Header, tree.Children[patients/2].Find("contact")[0].Children[0]
		var steadyChanged int
		steady := testing.AllocsPerRun(20, func() {
			if text.Text == "+33 1 00000000" {
				text.Text = "+33 1 00000001"
			} else {
				text.Text = "+33 1 00000000"
			}
			d, _, next, err := DiffEncodePayload(tree, opts, nil, plan, base, payload, spare)
			if err != nil {
				t.Fatal(err)
			}
			if d.ChangedBlocks == 0 || d.ChangedBlocks > 2 {
				t.Fatalf("%d patients: the edit changed %d blocks", patients, d.ChangedBlocks)
			}
			base, payload, spare, steadyChanged = &d.Header, next, payload, d.ChangedBlocks
		})
		fixed[i] = [4]float64{encode - float64(len(c.Blocks)), diff - float64(changed), kept - float64(changed), steady - float64(steadyChanged)}
		t.Logf("%d patients, %d blocks: Encode %.0f allocations (%.0f beside the blocks), diff %.0f (%.0f beside the %d changed), through a kept plan %.0f (%.0f), against its last payload %.0f beside the changed blocks",
			patients, len(c.Blocks), encode, fixed[i][0], diff, fixed[i][1], changed, kept, fixed[i][2], fixed[i][3])
	}
	for k, f := range figures {
		small, large := fixed[0][k], fixed[1][k]
		if small > f.bound || large > f.bound || large > small+2 {
			t.Errorf("%s allocates %.0f times beside its blocks for 30 patients and %.0f for 120 (bound %.0f, and the same for both)",
				f.what, small, large, f.bound)
		}
	}
}
