// Package sds is the public face of the safe-data-sharing platform: a Go
// reproduction of Bouganim, Cremarenco, Dang Ngoc, Dieu and Pucheral,
// "Safe Data Sharing and Data Dissemination on Smart Devices" (SIGMOD
// 2005) and of the client-based XML access-control engine it demonstrates
// (Bouganim, Dang Ngoc, Pucheral, VLDB 2004).
//
// The platform moves access control from the server to a Secure Operating
// Environment (a smart card) on the client: documents live encrypted on
// an untrusted store, and the card decrypts, verifies and filters them in
// streaming fashion under dynamic, subject-specific rules — with a skip
// index so that forbidden or irrelevant subtrees are neither transferred
// nor decrypted.
//
// Three levels of use:
//
//   - pure library: Filter applies a rule set (and optional query) to an
//     in-memory document — the paper's evaluator without any hardware
//     simulation;
//   - single process, full fidelity: NewMemStore + NewCard + Terminal run
//     the complete publish/provision/query flow with encryption,
//     integrity, skip index and simulated card costs (see
//     examples/quickstart);
//   - distributed: cmd/dspd serves the store over TCP, cmd/sdsctl drives
//     it (see README.md).
//
// The subpackages under internal/ are the system's real structure
// (DESIGN.md maps them); this package re-exports the surface a client
// application needs.
package sds

import (
	"fmt"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// Core model types.
type (
	// Document is an XML document tree (text nodes have empty Name;
	// attribute pseudo-elements are children named "@attr").
	Document = xmlstream.Node
	// RuleSet is a subject's access-control policy for a document.
	RuleSet = accessrule.RuleSet
	// Rule is one <sign, subject, object> access rule.
	Rule = accessrule.Rule
	// Query is a parsed XP{[],*,//} expression.
	Query = xpath.Path
	// Key is the symmetric material protecting one document.
	Key = secure.DocKey
	// Card is a simulated smart card (the SOE).
	Card = card.Card
	// CardProfile is a card hardware model.
	CardProfile = card.Profile
	// Store is the untrusted document store (DSP).
	Store = dsp.Store
	// StoreCache is an LRU block cache in front of a Store, with
	// hit/miss counters (dsp.Cache).
	StoreCache = dsp.Cache
	// CacheStats is a snapshot of a StoreCache's counters.
	CacheStats = dsp.CacheStats
	// StorePool is a fixed-size pool of connections to a dspd server;
	// it implements Store for concurrent fan-out.
	StorePool = dsp.Pool
	// FileStore is the durable store: the sharded in-memory tier kept
	// alive by per-shard WAL segments (one append mutex and group-commit
	// batcher per shard), with crash recovery (parallel segment replay,
	// torn-tail truncation), background streaming per-shard checkpoints,
	// and a directory lock against double-open. It reads one format (the
	// segmented layout, v3 images) and refuses retired ones with an
	// error. The platform picks the read tier: on unix checkpoint images are
	// mmap'd and checkpoint-resident blocks are served as pinned views
	// into the mapping — no heap copy between the page cache and the
	// server's writev — and on linux contiguous cold runs go onto the
	// wire with sendfile(2), never entering user space at all.
	FileStore = dsp.FileStore
	// FileStoreOptions tunes a FileStore (shard/segment count, fsync
	// policy, checkpoint budget, recovery parallelism); the read tier
	// is the platform's, not an option.
	FileStoreOptions = dsp.FileStoreOptions
	// FileStoreStats snapshots a FileStore's durability counters,
	// including SegmentCount, RecoveryDuration, LastCheckpointDuration,
	// the mapped-tier gauges (MappedBytes, MmapReads/HeapReads,
	// FooterMigrations, MadviseCalls), the sendfile cold-serve counters
	// (SendfileReads/SendfileBytes/SendfileFallbacks). FooterMigrations
	// counts images whose footer failed validation and were rewritten at
	// open.
	FileStoreStats = dsp.FileStoreStats
	// BlockFrame is the pooled response of Client.ReadBlocksFrame: its
	// Blocks alias one reusable buffer that Release returns to the pool;
	// CopyOut detaches a block that must outlive the frame.
	BlockFrame = dsp.BlockFrame
	// StoreServer serves a Store over TCP with per-connection request
	// pipelining and a bounded worker pool.
	StoreServer = dsp.Server
	// StoreServerConfig tunes a StoreServer's concurrency.
	StoreServerConfig = dsp.ServerConfig
	// PullSession is the restartable unit under Terminal and Gateway:
	// one card plus its prepared pull pipeline, provisioned once and
	// reusable across queries (Reset/Close). Terminals make one per
	// query; the fleet pools them per subject.
	PullSession = proxy.Session
	// Terminal orchestrates pull queries for one card. Setting its
	// Prefetch field (see DefaultPrefetch) turns the pull loop into a
	// two-stage prefetching pipeline: batched block runs are fetched
	// speculatively and overlapped with card evaluation.
	Terminal = proxy.Terminal
	// Publisher encodes and uploads documents and rule sets. Besides
	// the buffered PublishDocument it offers PublishStream (the
	// bounded-memory io-driven path) and Republish (block-level delta
	// re-publication: only changed blocks travel). One that is kept
	// across re-publications diffs against the plaintext it retained
	// from its own last commit instead of reading the document back.
	Publisher = proxy.Publisher
	// RepublishInfo describes a delta re-publication (changed blocks,
	// uploaded bytes, negotiated version).
	RepublishInfo = proxy.RepublishInfo
	// StoreUpdater is the optional store interface behind streaming
	// publish: the staged begin/put-blocks/commit upload. MemStore,
	// FileStore, Cache, Client and Pool implement it, and commit a delta
	// re-publication in one call too (dsp.DeltaCommitter).
	StoreUpdater = dsp.DocUpdater
	// Result is a query outcome with its cost statistics: XML() and
	// AppendXML render the authorized view in one pass, Tree()
	// materializes it as a DOM.
	Result = proxy.Result
	// Gateway is the card-fleet tier: it serves concurrent pull queries
	// for many subjects over one shared store, provisioning one card
	// per subject on demand.
	Gateway = fleet.Gateway
	// GatewayConfig assembles a Gateway.
	GatewayConfig = fleet.Config
	// GatewayStats aggregates one subject's usage at the gateway.
	GatewayStats = fleet.SubjectStats
	// GatewayPoolStats aggregates the gateway's session pool across all
	// subjects (occupancy, recycles, retires, reaping, rate limiting).
	GatewayPoolStats = fleet.PoolStats
	// KeySource resolves document keys during gateway provisioning.
	KeySource = fleet.KeySource
	// GatewayServer serves a Gateway over TCP with the gatewayd wire
	// protocol (cmd/gatewayd is the ready-made daemon).
	GatewayServer = gateway.Server
	// GatewayServerConfig tunes a GatewayServer's concurrency.
	GatewayServerConfig = gateway.ServerConfig
	// GatewayClient talks to a gatewayd over one multiplexed connection.
	GatewayClient = gateway.Client
	// GatewayWireSession is one subject binding on a GatewayClient; the
	// card state it stands for is pooled server-side.
	GatewayWireSession = gateway.Session
	// GatewaySnapshot is a gatewayd observability snapshot (wire
	// traffic, pool occupancy, per-subject meters, cache and store
	// stats) — what /stats serves.
	GatewaySnapshot = gateway.Snapshot
	// StoreServerStats is a dspd observability snapshot (document
	// count, cache counters, durable-tier counters).
	StoreServerStats = dsp.ServerStats
	// EncodeOptions tunes document encryption and indexing.
	EncodeOptions = docenc.EncodeOptions
	// SessionOptions tunes a card session (ablation switches).
	SessionOptions = soe.Options
)

// ErrStoreLocked reports that a durable store directory is already open
// by another FileStore (this process or another); see NewFileStore.
var ErrStoreLocked = dsp.ErrStoreLocked

// Card hardware profiles.
var (
	// EGate models the paper's Axalto e-gate: 1 KB applet RAM, 2 KB/s
	// link.
	EGate = card.EGate
	// Modern models a contemporary secure element.
	Modern = card.Modern
)

// Rule signs.
const (
	Permit = accessrule.Permit
	Deny   = accessrule.Deny
)

// DefaultPrefetch is the pipeline depth that amortizes a network round
// trip without inflating speculation waste (Terminal.Prefetch,
// GatewayConfig.Prefetch).
const DefaultPrefetch = proxy.DefaultPrefetch

// ParseXML parses an XML document.
func ParseXML(src []byte) (*Document, error) {
	evs, err := xmlstream.Parse(src)
	if err != nil {
		return nil, err
	}
	return xmlstream.BuildTree(evs)
}

// SerializeXML renders a document (indent "" = compact).
func SerializeXML(doc *Document, indent string) (string, error) {
	return xmlstream.Serialize(doc.Events(), xmlstream.WriterOptions{Indent: indent})
}

// ParseRules parses the textual rule-set format:
//
//	subject nurse
//	doc folder
//	default -
//	+ /folder
//	- //ssn
func ParseRules(text string) (*RuleSet, error) {
	return accessrule.ParseSet(text)
}

// ParseQuery parses an absolute XP{[],*,//} expression.
func ParseQuery(expr string) (*Query, error) {
	return xpath.Parse(expr)
}

// NewKey draws a fresh document key.
func NewKey() (Key, error) { return secure.NewDocKey() }

// KeyFromSeed derives a deterministic key (tests, reproducible demos).
func KeyFromSeed(seed string) Key { return secure.KeyFromSeed(seed) }

// NewMemStore returns an in-process untrusted store (sharded for
// concurrent access).
func NewMemStore() *dsp.MemStore { return dsp.NewMemStore() }

// NewFileStore opens (or creates) a durable untrusted store in dir: a
// segmented WAL-backed FileStore that survives crashes and restarts
// (cmd/dspd serves one with -store). A directory already open fails
// with ErrStoreLocked; a lock left by a dead process is reclaimed.
func NewFileStore(dir string) (*FileStore, error) { return dsp.NewFileStore(dir) }

// NewFileStoreOptions is NewFileStore with explicit tuning.
func NewFileStoreOptions(dir string, opts FileStoreOptions) (*FileStore, error) {
	return dsp.NewFileStoreOptions(dir, opts)
}

// NewStoreCache fronts a store with an LRU block cache holding at most
// maxBytes of encrypted blocks (<= 0 selects the default budget).
func NewStoreCache(s Store, maxBytes int64) *StoreCache { return dsp.NewCache(s, maxBytes) }

// NewStoreServer wraps a store in a TCP server (see cmd/dspd for the
// ready-made daemon).
func NewStoreServer(s Store) *StoreServer { return dsp.NewServer(s) }

// NewStoreServerConfig wraps a store in a TCP server with explicit
// concurrency tuning.
func NewStoreServerConfig(s Store, cfg StoreServerConfig) *StoreServer {
	return dsp.NewServerConfig(s, cfg)
}

// DialStore connects to a dspd server over one connection.
func DialStore(addr string) (*dsp.Client, error) { return dsp.Dial(addr) }

// DialStorePool connects size pooled connections to a dspd server so
// many goroutines can fan out over one shared Store (<= 0 selects the
// default size).
func DialStorePool(addr string, size int) (*StorePool, error) { return dsp.DialPool(addr, size) }

// ReadBlockRange fetches a contiguous run of blocks, in one round trip
// when the store supports batched reads and block-by-block otherwise.
func ReadBlockRange(s Store, docID string, start, count int) ([][]byte, error) {
	return dsp.ReadBlockRange(s, docID, start, count)
}

// NewCard returns a provisionable simulated card.
func NewCard(profile CardProfile) *Card { return card.New(profile) }

// Filter applies a rule set (and optional query, "" for none) to an
// in-memory document using the streaming engine, returning the authorized
// view (nil when nothing is visible). This is the paper's evaluator as a
// plain library: no encryption, no card simulation.
func Filter(doc *Document, rules *RuleSet, query string) (*Document, error) {
	var q *Query
	if query != "" {
		var err error
		q, err = xpath.Parse(query)
		if err != nil {
			return nil, err
		}
	}
	out, _, err := core.Filter(doc.Events(), rules, q)
	return out, err
}

// Publish encrypts, indexes and uploads a document in one call.
func Publish(store Store, doc *Document, docID string, key Key) error {
	p := &Publisher{Store: store}
	_, err := p.PublishDocument(doc, EncodeOptions{DocID: docID, Key: key})
	return err
}

// PublishStream is Publish over the streaming pipeline: the document is
// encoded, indexed and encrypted in one bounded-memory pass, and blocks
// go to the store as they are produced (atomically, via the staged
// update when the store supports it). Re-publishing an existing
// document negotiates the next version automatically.
func PublishStream(store Store, doc *Document, docID string, key Key) error {
	p := &Publisher{Store: store}
	_, err := p.PublishStream(doc, EncodeOptions{DocID: docID, Key: key})
	return err
}

// Republish uploads a new version of a published document as a
// block-level delta: the stored version is read back, authenticated and
// diffed against the new tree, and only the changed block runs travel to
// the store — atomically, with the version bumped. The returned info
// reports how much of the document actually moved. A caller that
// re-publishes a document repeatedly keeps a Publisher instead, which
// spares it the read-back.
func Republish(store Store, doc *Document, docID string, key Key) (*RepublishInfo, error) {
	p := &Publisher{Store: store}
	return p.Republish(doc, EncodeOptions{DocID: docID, Key: key})
}

// Grant seals and uploads a subject's rule set for a document.
func Grant(store Store, key Key, rules *RuleSet) error {
	if rules.DocID == "" {
		return fmt.Errorf("sds: the rule set must name its document (RuleSet.DocID)")
	}
	p := &Publisher{Store: store}
	return p.GrantRules(key, rules)
}

// Provision installs a document key and the subject's current rights on a
// card.
func Provision(store Store, c *Card, docID, subject string, key Key) error {
	if err := c.PutKey(docID, key); err != nil {
		return err
	}
	t := &Terminal{Store: store, Card: c}
	return t.InstallRules(subject, docID)
}

// QueryCard runs a pull query through a provisioned card ("" = the full
// authorized view).
func QueryCard(store Store, c *Card, subject, docID, query string) (*Result, error) {
	t := &Terminal{Store: store, Card: c}
	return t.Query(subject, docID, query)
}

// QueryCardPipelined is QueryCard over the prefetching pipeline: block
// runs of up to prefetch blocks (<= 0 selects DefaultPrefetch) are
// fetched in batched round trips, overlapped with card evaluation — the
// right shape when the store is at the end of a network link.
func QueryCardPipelined(store Store, c *Card, subject, docID, query string, prefetch int) (*Result, error) {
	if prefetch <= 0 {
		prefetch = DefaultPrefetch
	}
	t := &Terminal{Store: store, Card: c, Prefetch: prefetch}
	return t.Query(subject, docID, query)
}

// NewGateway builds a card-fleet gateway over a shared store: concurrent
// Query calls for many subjects, bounded admission, on-demand
// provisioning, per-subject meters. FixedGatewayKeys adapts a static key
// table into the config's key source.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return fleet.New(cfg) }

// FixedGatewayKeys adapts a docID→key table into a KeySource.
func FixedGatewayKeys(keys map[string]Key) KeySource { return fleet.FixedKeys(keys) }

// NewGatewayServer wraps a Gateway in a TCP server speaking the
// gatewayd wire protocol (see cmd/gatewayd for the ready-made daemon
// with the /stats HTTP endpoint).
func NewGatewayServer(g *Gateway, cfg GatewayServerConfig) *GatewayServer {
	return gateway.NewServer(g, cfg)
}

// DialGateway connects to a gatewayd server; Open a session per subject
// and Query through it (see examples/gateway).
func DialGateway(addr string) (*GatewayClient, error) { return gateway.Dial(addr) }
