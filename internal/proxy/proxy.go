// Package proxy implements the terminal side of the architecture: the
// component that "allows the applications to communicate easily with the
// different elements of the architecture through an XML API independent
// of the underlying protocols" (Section 3).
//
// The Terminal orchestrates a pull session end to end: it fetches the
// container header and the blocks the card asks for from the DSP, feeds
// them to the SOE session, whose output goes straight to the session's
// Collector, buffers pending parts until the card resolves them, and
// reassembles the authorized result in document order. With Prefetch
// set, fetching becomes a speculative two-stage pipeline (see
// pipeline.go) that overlaps batched DSP round trips with card
// evaluation. The Publisher is the administrative counterpart: it
// encodes and uploads documents and sealed rule sets.
package proxy

import (
	"fmt"

	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/soe"
	"repro/internal/tagdict"
	"repro/internal/xmlstream"
)

// Terminal drives queries for one card against one store.
type Terminal struct {
	Store dsp.Store
	Card  *card.Card
	// Options passes through to the SOE session (ablation switches).
	Options soe.Options
	// Prefetch enables the two-stage streaming pipeline: when > 0, a
	// prefetcher goroutine speculatively fetches runs of blocks, one
	// store round trip each (one batched ReadBlocks call when the store
	// supports it), into a bounded double buffer, overlapped with the
	// card's feed/evaluate stage. Prefetch is the length of the first
	// run, and of the first run after every skip that outruns the
	// buffer; while the card reads on, the runs grow (see pipeline.go).
	// Speculative blocks the card never asks for are counted in
	// ResultStats.BlocksWasted. 0 keeps the historical serial
	// one-block-per-round-trip loop.
	Prefetch int
}

// DefaultPrefetch is a good first run for stores reached over a network:
// long enough to amortize a round trip, short enough to keep speculation
// waste small when the card skips.
const DefaultPrefetch = 8

// ResultStats describes the cost of one query.
type ResultStats struct {
	// BlocksFetched / BlocksTotal: the skip index's transfer saving.
	// On the pipelined path BlocksFetched includes speculative blocks
	// (see BlocksWasted for how many of those the card never consumed).
	BlocksFetched int
	BlocksTotal   int
	// BlocksWasted counts prefetched blocks the card never asked for —
	// the price of speculation on the pipelined path (always 0 on the
	// serial path).
	BlocksWasted int
	// BytesFetched counts stored bytes pulled from the DSP.
	BytesFetched int64
	// Session carries the SOE-side counters (RAM peak, evaluator work).
	Session soe.Stats
	// Meter is the card work performed by this query (delta).
	Meter card.Meter
	// Time prices the meter under the card's profile.
	Time card.TimeBreakdown
	// PendingEvents / PendingBytes measure the terminal-side buffering
	// caused by pending rules (delivered only after resolution).
	PendingEvents int
	PendingBytes  int64
}

// Result is the outcome of a pull query.
type Result struct {
	// view is the authorized result (nil when nothing is visible): an
	// immutable compact copy, independent of the session that produced
	// it, so the session goes back to its pool while the result renders.
	view *core.View
	// Version is the document version the query was served from (the
	// authenticated header's version) — what lets a gateway detect that
	// a document moved underneath its fleet.
	Version uint32
	// Stats describes the query's cost.
	Stats ResultStats
}

// xmlFormat is the one rendering of a result: indented by two spaces.
var xmlFormat = xmlstream.WriterOptions{Indent: "  "}

// AppendXML appends the result's XML to dst in one walk over the view —
// what a server does with its response frame. Nothing is appended for
// an empty result. A view that has no XML form (an attribute that
// arrives after content) is an error, and dst then holds a torso the
// caller must drop.
func (r *Result) AppendXML(dst []byte) ([]byte, error) {
	return r.view.AppendXML(dst, xmlFormat)
}

// XML renders the result (indented), or "" when empty. For display: a
// caller that must tell a failed rendering from a result uses AppendXML.
func (r *Result) XML() string {
	s, err := r.view.XML(xmlFormat)
	if err != nil {
		return fmt.Sprintf("<!-- unserializable result: %v -->", err)
	}
	return s
}

// Tree materializes the result as a DOM (nil when nothing is visible),
// for callers that navigate it; each call builds a fresh tree.
func (r *Result) Tree() *xmlstream.Node {
	return r.view.Tree()
}

// Query runs a pull request: fetch, decrypt-on-card, filter, reassemble.
// query is an XP{[],*,//} expression, or "" for the full authorized view.
//
// Terminal is the one-shot facade: each call runs on a throwaway
// Session. Callers that issue many queries per card (the fleet
// gateway) hold a Session directly and recycle it.
func (t *Terminal) Query(subject, docID, query string) (*Result, error) {
	return t.session().Query(subject, docID, query)
}

// session builds the single-use Session a facade call runs on.
func (t *Terminal) session() *Session {
	return NewSession(t.Store, t.Card, t.Options, t.Prefetch)
}

// InstallRules pulls the subject's sealed rule set from the store and
// installs it on the card (the "access rights update protocol" of the
// demonstration: rights refresh without touching the document).
func (t *Terminal) InstallRules(subject, docID string) error {
	return t.session().InstallRules(subject, docID)
}

// Collector is the terminal-side record sink: it grows a name table from
// the card's lazy bindings and feeds the document-order assembler. Reset
// makes it ready for another card session with its storage kept, which
// is how a pooled Session and a standing Subscriber use it.
type Collector struct {
	// names holds this session's bindings by code; interned keeps every
	// name ever bound, so that rebinding the same tags query after query
	// allocates nothing.
	names    []string
	interned map[string]string
	asm      *core.Assembler
	done     bool
}

// maxInterned bounds the names a long-lived collector remembers across
// documents; past it the table starts over.
const maxInterned = 4 * tagdict.MaxTags

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{interned: make(map[string]string)}
	c.asm = core.NewAssembler(c)
	return c
}

// Reset empties the collector for the next card session.
func (c *Collector) Reset() {
	clear(c.names)
	c.asm.Reset()
	c.done = false
}

// Name implements core.NameResolver over the learned bindings.
func (c *Collector) Name(code tagdict.Code) string {
	if int(code) < len(c.names) && c.names[code] != "" {
		return c.names[code]
	}
	// Unreachable when the card keeps its binding contract; keep the
	// output well-formed regardless.
	return fmt.Sprintf("tag-%d", code)
}

// Bind implements soe.RecordSink.
func (c *Collector) Bind(code tagdict.Code, name []byte) error {
	s, ok := c.interned[string(name)]
	if !ok {
		if len(c.interned) >= maxInterned {
			clear(c.interned)
		}
		s = string(name)
		c.interned[s] = s
	}
	if int(code) >= len(c.names) {
		c.names = append(c.names, make([]string, int(code)+1-len(c.names))...)
	}
	c.names[code] = s
	return nil
}

// Open implements soe.RecordSink.
func (c *Collector) Open(code tagdict.Code, mode core.Mode, group core.GroupID) error {
	return c.asm.EmitOpen(code, mode, group)
}

// Value implements soe.RecordSink.
func (c *Collector) Value(text []byte, mode core.Mode, group core.GroupID) error {
	return c.asm.EmitValue(text, mode, group)
}

// Close implements soe.RecordSink.
func (c *Collector) Close(mode core.Mode, group core.GroupID) error {
	return c.asm.EmitClose(mode, group)
}

// Resolve implements soe.RecordSink.
func (c *Collector) Resolve(group core.GroupID, deliver bool) error {
	return c.asm.ResolveGroup(group, deliver)
}

// Done implements soe.RecordSink.
func (c *Collector) Done() error {
	c.done = true
	return nil
}

// PendingLoad reports the terminal-side pending-buffer load (events and
// text bytes that awaited group resolution).
func (c *Collector) PendingLoad() (int, int64) {
	return c.asm.PendingLoad()
}

// View finalizes the assembly into the authorized view (nil when nothing
// is visible); it fails if the card never signalled completion.
func (c *Collector) View() (*core.View, error) {
	return c.ViewInto(new(core.View))
}

// ViewInto is View built in v's storage (see core.Assembler.FinishInto).
func (c *Collector) ViewInto(v *core.View) (*core.View, error) {
	if !c.done {
		return nil, fmt.Errorf("proxy: card session ended without a done record")
	}
	return c.asm.FinishInto(v)
}
