package proxy

import (
	"strings"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// bigValueDoc builds a document whose text nodes dwarf the e-gate's 1 KB
// of RAM.
func bigValueDoc(valueBytes int) *xmlstream.Node {
	text := strings.Repeat("x", valueBytes)
	return &xmlstream.Node{Name: "doc", Children: []*xmlstream.Node{
		{Name: "public", Children: []*xmlstream.Node{{Text: text}}},
		{Name: "secret", Children: []*xmlstream.Node{{Text: text}}},
		{Name: "tail", Children: []*xmlstream.Node{{Text: "end"}}},
	}}
}

// TestValueStreamingThroughTinyRAM: a 6 KB text node flows through a
// 1 KB card intact (chunked delivery, bounded memory).
func TestValueStreamingThroughTinyRAM(t *testing.T) {
	doc := bigValueDoc(6 * 1024)
	rs := workload.MustParseRules("subject u\ndefault +")
	r := newRig(t, doc, "big", card.EGate, docenc.EncodeOptions{}, rs)
	res, err := r.sess.Query("u", "big", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Tree().TextContent()); got != 2*6*1024+3 {
		t.Fatalf("delivered %d text bytes, want %d", got, 2*6*1024+3)
	}
	if res.Stats.Session.RAMPeak > card.EGate.RAMBudget {
		t.Errorf("RAM peak %d exceeded the budget", res.Stats.Session.RAMPeak)
	}
}

// TestValueSkippingAvoidsDeniedBytes: the denied 6 KB value must be
// neither delivered nor decrypted.
func TestValueSkippingAvoidsDeniedBytes(t *testing.T) {
	doc := bigValueDoc(6 * 1024)
	rs := workload.MustParseRules("subject u\ndefault +\n- /doc/secret")
	// Disable the element-level index so only VALUE skipping can save
	// bytes (the secret element itself gets no meta record).
	r := newRig(t, doc, "big", card.EGate, docenc.EncodeOptions{DisableIndex: true}, rs)
	res, err := r.sess.Query("u", "big", "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.XML(), "xxx") && len(res.Tree().Find("secret")) > 0 {
		if res.Tree().Find("secret")[0].TextContent() != "" {
			t.Fatal("denied text delivered")
		}
	}
	if res.Stats.Session.Core.ValueBytesSkipped < 6*1024 {
		t.Errorf("value skipping saved only %d bytes, want >= %d",
			res.Stats.Session.Core.ValueBytesSkipped, 6*1024)
	}
	// The skipped value's interior blocks must never have been fetched.
	if res.Stats.BlocksFetched >= res.Stats.BlocksTotal {
		t.Errorf("value skipping fetched every block (%d/%d)",
			res.Stats.BlocksFetched, res.Stats.BlocksTotal)
	}
	if got := res.Tree().Find("tail")[0].TextContent(); got != "end" {
		t.Fatalf("content after the skipped value corrupted: %q", got)
	}
}

// TestLargeComparedValueRejectedGracefully: a text comparison against a
// value bigger than the secure buffer must fail with a clean error, not
// an overflow or a wrong answer.
func TestLargeComparedValueRejectedGracefully(t *testing.T) {
	doc := bigValueDoc(6 * 1024)
	rs := workload.MustParseRules(`subject u` + "\n" + `default -` + "\n" + `+ /doc/secret[. = "password"]`)
	r := newRig(t, doc, "big", card.EGate, docenc.EncodeOptions{}, rs)
	_, err := r.session(t, r.store, soe.Options{MaxValue: 512}, 0).Query("u", "big", "")
	if err == nil {
		t.Fatal("comparing a 6 KB value in a 512-byte buffer must fail")
	}
	if !strings.Contains(err.Error(), "secure buffer") {
		t.Errorf("unexpected failure mode: %v", err)
	}
}
