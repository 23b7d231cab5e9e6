// Package fleet implements the card-fleet gateway: the multi-tenant
// trusted tier the paper's architecture implies but the demonstration
// never built. The deployment model is "one SOE per client, untrusted
// store shared by all" (Section 3); a portal serving many subjects
// therefore fronts a fleet of Secure Operating Environments behind a
// single admission point.
//
// The Gateway owns that fleet as a bounded per-subject session pool.
// Each pooled session is a proxy.Session — a provisioned card plus the
// prefetch pipeline — checked out for one query, recycled with its
// expensive state intact (document keys, amortized cipher contexts,
// sealed rule sets), and retired on failure or after sitting idle.
// Admission, per-subject session bounds, rate limits and quotas are
// pool policy; rule refreshes propagate version-checked at checkout so
// a revocation reaches every session of a subject without a broadcast.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/card"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
)

// KeySource hands the gateway the decryption key of a document — the
// stand-in for the PKI/licensing channel that delivers keys "via a
// secure channel from different sources" (Section 2.1). pki.Exchange or
// secure.KeyFromSeed both adapt naturally.
type KeySource func(docID string) (secure.DocKey, error)

// FixedKeys adapts a static docID→key table into a KeySource.
func FixedKeys(keys map[string]secure.DocKey) KeySource {
	return func(docID string) (secure.DocKey, error) {
		k, ok := keys[docID]
		if !ok {
			return secure.DocKey{}, fmt.Errorf("fleet: no key available for document %q", docID)
		}
		return k, nil
	}
}

// DefaultSessionsPerSubject bounds one subject's pooled sessions when
// the config does not say otherwise: enough to overlap a few concurrent
// queries per subject, small enough that a thousand-subject fleet does
// not hold a thousand×N warm cards.
const DefaultSessionsPerSubject = 4

// ErrRateLimited is returned when a subject exceeds its configured query
// rate; the caller should back off and retry.
var ErrRateLimited = errors.New("fleet: subject rate limit exceeded")

// ErrTooManySubjects is returned when admitting a new subject would
// exceed Config.MaxSubjects.
var ErrTooManySubjects = errors.New("fleet: subject quota exceeded")

// ErrClosed is returned for queries against a closed (draining) gateway.
var ErrClosed = errors.New("fleet: gateway is closed")

// Config assembles a Gateway.
type Config struct {
	// Store is the shared untrusted DSP tier (a MemStore, Cache, Client
	// or Pool — anything implementing dsp.Store).
	Store dsp.Store
	// Keys resolves document keys during provisioning.
	Keys KeySource
	// Profile is the hardware model of every fleet card. The zero value
	// selects card.Modern (a portal simulates contemporary secure
	// elements, not 2005 e-gates, unless asked otherwise).
	Profile card.Profile
	// MaxConcurrent bounds the queries admitted at once across all
	// subjects; <= 0 selects 2×GOMAXPROCS.
	MaxConcurrent int
	// MaxSessionsPerSubject bounds one subject's pooled sessions; <= 0
	// selects DefaultSessionsPerSubject. A subject's queries beyond the
	// bound wait for a recycled session instead of growing the pool.
	MaxSessionsPerSubject int
	// MaxSubjects bounds the distinct subjects the fleet will hold
	// sessions for; 0 means unlimited. Excess subjects are refused with
	// ErrTooManySubjects (admission control, not queueing: an unbounded
	// subject set is a memory commitment, not a latency one).
	MaxSubjects int
	// SubjectRate limits each subject to this many queries per second
	// (token bucket, burst SubjectBurst); 0 disables rate limiting.
	SubjectRate float64
	// SubjectBurst is the token-bucket depth when SubjectRate is set;
	// <= 0 selects max(1, ceil(SubjectRate)).
	SubjectBurst int
	// IdleTimeout retires pooled sessions idle longer than this; 0
	// disables the background reaper (ReapIdle can still be called).
	IdleTimeout time.Duration
	// Prefetch is the first readahead run of the fleet sessions' pull
	// pipeline (see proxy.NewSession); 0 keeps the serial pull path.
	Prefetch int
	// Options passes ablation switches through to every session.
	Options soe.Options
}

// Gateway serves concurrent pull queries for many subjects over one
// shared store, multiplexing each subject's queries over a bounded pool
// of recycled sessions.
type Gateway struct {
	cfg   Config
	admit chan struct{}

	mu     sync.Mutex
	pools  map[string]*subjectPool
	closed bool

	inflight sync.WaitGroup
	reapStop chan struct{}
	reapDone chan struct{}
}

// pooledSession is one checkout unit: a proxy.Session (card + pipeline)
// plus the provisioning bookkeeping that decides what work a checkout
// still owes before the query can run.
type pooledSession struct {
	sess *proxy.Session
	card *card.Card
	// provisioned records the documents this session's card holds
	// key+rules for.
	provisioned map[string]bool
	// ruleEpochs records, per document, the subject pool's refresh epoch
	// at which this session last installed rules. A session behind the
	// pool's epoch re-pulls the sealed rule set at checkout — how a
	// revocation reaches sessions that were busy when it landed.
	ruleEpochs map[string]uint64
	idleSince  time.Time
}

// subjectPool is one subject's slot in the fleet: the bounded session
// pool, the shared provisioning/versioning records every session
// synchronizes against, and the aggregated meters. All mutable state is
// guarded by mu; stats are written only inside single critical
// sections, so a snapshot under mu can never tear.
type subjectPool struct {
	subject string

	mu   sync.Mutex
	cond *sync.Cond // signals a session returned to idle
	idle []*pooledSession
	all  []*pooledSession // every live session, idle and checked out
	live int

	// provisionedDocs: documents at least one session was provisioned
	// for — the set RefreshRules is willing to refresh (a refresh is not
	// an implicit key grant).
	provisionedDocs map[string]bool
	// ruleEpochs is the subject's refresh clock per document, bumped by
	// RefreshRules and by observed document-version bumps.
	ruleEpochs map[string]uint64
	// docVersions records, per document, the latest version a query of
	// this subject was served from. A served version above the record
	// means the document was re-published underneath the fleet: the
	// gateway then refreshes the subject's rules the same way
	// RefreshRules does, since policy changes typically ride along with
	// content changes (Section 5's update model).
	docVersions map[string]uint32

	// Token bucket (SubjectRate/SubjectBurst).
	tokens   float64
	lastFill time.Time

	stats SubjectStats
}

// SubjectStats aggregates one subject's fleet usage. The snapshot
// returned by Stats/SubjectStats is internally consistent: writers only
// update it inside one critical section per event, readers copy it
// under the same lock.
type SubjectStats struct {
	Subject string
	Queries int64
	// Errors counts queries that failed after admission.
	Errors int64
	// BlocksFetched / BlocksWasted aggregate the terminal-side transfer.
	BlocksFetched int64
	BlocksWasted  int64
	// VersionRefreshes counts rule refreshes triggered by an observed
	// document version bump (delta or full re-publication).
	VersionRefreshes int64
	// Meter is the summed card work across the subject's queries.
	Meter card.Meter

	// Pool telemetry.
	SessionsLive int   // sessions held (idle + in use)
	SessionsIdle int   // sessions parked and ready for checkout
	Provisions   int64 // (session, doc) provisionings performed
	Recycles     int64 // sessions returned to the pool after a query
	Retires      int64 // sessions dropped after a failure
	Reaped       int64 // sessions retired by idle reaping
	Waits        int64 // checkouts that blocked on an exhausted pool
	RateLimited  int64 // queries refused by the subject rate limit
}

// PoolStats aggregates the whole fleet's pool telemetry — what a
// gateway daemon exports for observability.
type PoolStats struct {
	Subjects      int   `json:"subjects"`
	SessionsLive  int   `json:"sessions_live"`
	SessionsIdle  int   `json:"sessions_idle"`
	SessionsInUse int   `json:"sessions_in_use"`
	Provisions    int64 `json:"provisions"`
	Recycles      int64 `json:"recycles"`
	Retires       int64 `json:"retires"`
	Reaped        int64 `json:"reaped"`
	Waits         int64 `json:"waits"`
	RateLimited   int64 `json:"rate_limited"`

	Queries          int64 `json:"queries"`
	Errors           int64 `json:"errors"`
	BlocksFetched    int64 `json:"blocks_fetched"`
	BlocksWasted     int64 `json:"blocks_wasted"`
	VersionRefreshes int64 `json:"version_refreshes"`
}

// New builds a Gateway. Store and Keys are required.
func New(cfg Config) (*Gateway, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: config needs a store")
	}
	if cfg.Keys == nil {
		return nil, fmt.Errorf("fleet: config needs a key source")
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = card.Modern
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSessionsPerSubject <= 0 {
		cfg.MaxSessionsPerSubject = DefaultSessionsPerSubject
	}
	if cfg.SubjectRate > 0 && cfg.SubjectBurst <= 0 {
		cfg.SubjectBurst = int(cfg.SubjectRate)
		if cfg.SubjectBurst < 1 {
			cfg.SubjectBurst = 1
		}
	}
	g := &Gateway{
		cfg:   cfg,
		admit: make(chan struct{}, cfg.MaxConcurrent),
		pools: make(map[string]*subjectPool),
	}
	if cfg.IdleTimeout > 0 {
		g.reapStop = make(chan struct{})
		g.reapDone = make(chan struct{})
		go g.reapLoop()
	}
	return g, nil
}

// Query runs one pull query for subject over doc, checking a session out
// of the subject's pool (provisioning one on first use). Calls for
// distinct subjects run in parallel up to the admission bound; calls for
// one subject run in parallel up to the subject's session bound and
// wait for a recycled session beyond it.
func (g *Gateway) Query(subject, docID, query string) (*proxy.Result, error) {
	sp, err := g.enter(subject)
	if err != nil {
		return nil, err
	}
	defer g.inflight.Done()

	if err := sp.admitRate(g.cfg); err != nil {
		return nil, err
	}

	ses, err := sp.checkout(g)
	if err != nil {
		return nil, err
	}

	// Take the admission slot only after owning a session: queries queued
	// behind a hot subject's exhausted pool must not hold admission
	// capacity, or one busy tenant would serialize the whole gateway.
	g.admit <- struct{}{}
	res, qerr := g.runOn(sp, ses, subject, docID, query)
	<-g.admit

	if qerr != nil {
		sp.mu.Lock()
		sp.stats.Errors++
		sp.retireLocked(ses)
		sp.mu.Unlock()
		return nil, qerr
	}

	// One critical section per successful query: stats, version-bump
	// detection, recycle. A torn read (BlocksWasted > BlocksFetched,
	// half-added meters) is impossible because this is the only place
	// query stats are written.
	sp.mu.Lock()
	sp.stats.Queries++
	sp.stats.BlocksFetched += int64(res.Stats.BlocksFetched)
	sp.stats.BlocksWasted += int64(res.Stats.BlocksWasted)
	sp.stats.Meter.Add(res.Stats.Meter)
	bumped := sp.noteVersionLocked(docID, res.Version)
	sp.mu.Unlock()

	if bumped {
		// The document moved underneath the fleet: re-pull this subject's
		// rules the way RefreshRules does, driven by the document instead
		// of the operator. The session is still exclusively ours, so the
		// install needs no lock; other sessions catch up at checkout via
		// the epoch bump noteVersionLocked performed. A failed refresh is
		// counted but does not fail the query that observed the bump (the
		// card keeps filtering under its installed rules, which its own
		// version check guarantees are not rolled back).
		err := ses.sess.InstallRules(subject, docID)
		sp.mu.Lock()
		if err != nil {
			sp.stats.Errors++
		} else {
			sp.stats.VersionRefreshes++
			ses.ruleEpochs[docID] = sp.ruleEpochs[docID]
		}
		sp.mu.Unlock()
	}

	sp.recycle(ses)
	return res, nil
}

// CountError books a failure the caller met after Query returned a
// result it then could not deliver (the wire server, serializing it), so
// the subject's Errors stays the count of queries that came to nothing.
func (g *Gateway) CountError(subject string) {
	g.mu.Lock()
	sp := g.pools[subject]
	g.mu.Unlock()
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.stats.Errors++
	sp.mu.Unlock()
}

// runOn provisions the checked-out session for docID if needed, catches
// it up with any rule refresh it missed, and runs the query.
func (g *Gateway) runOn(sp *subjectPool, ses *pooledSession, subject, docID, query string) (*proxy.Result, error) {
	sp.mu.Lock()
	epoch := sp.ruleEpochs[docID]
	sp.mu.Unlock()

	if !ses.provisioned[docID] {
		// The session is exclusively ours; provisioning touches only its
		// card, so no lock is held across the store round trips.
		key, err := g.cfg.Keys(docID)
		if err != nil {
			return nil, err
		}
		if err := ses.sess.Provision(docID, key); err != nil {
			return nil, err
		}
		if err := ses.sess.InstallRules(subject, docID); err != nil {
			return nil, err
		}
		ses.provisioned[docID] = true
		ses.ruleEpochs[docID] = epoch
		sp.mu.Lock()
		sp.provisionedDocs[docID] = true
		sp.stats.Provisions++
		sp.mu.Unlock()
	} else if ses.ruleEpochs[docID] < epoch {
		// A refresh landed while this session was busy or parked:
		// re-install before serving. Failure is non-fatal — the card
		// keeps filtering under the rules it has (never rolled back).
		if err := ses.sess.InstallRules(subject, docID); err != nil {
			sp.mu.Lock()
			sp.stats.Errors++
			sp.mu.Unlock()
		} else {
			ses.ruleEpochs[docID] = epoch
		}
	}
	return ses.sess.Query(subject, docID, query)
}

// enter finds or creates the subject's pool and registers the query as
// in flight — one atomic step under g.mu, so Close cannot slip between
// the closed check and the WaitGroup add.
func (g *Gateway) enter(subject string) (*subjectPool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	sp, ok := g.pools[subject]
	if !ok {
		if g.cfg.MaxSubjects > 0 && len(g.pools) >= g.cfg.MaxSubjects {
			return nil, fmt.Errorf("%w (%d subjects held, subject %q refused)", ErrTooManySubjects, len(g.pools), subject)
		}
		sp = &subjectPool{
			subject:         subject,
			provisionedDocs: make(map[string]bool),
			ruleEpochs:      make(map[string]uint64),
			docVersions:     make(map[string]uint32),
			tokens:          float64(g.cfg.SubjectBurst),
			lastFill:        time.Now(),
		}
		sp.cond = sync.NewCond(&sp.mu)
		sp.stats.Subject = subject
		g.pools[subject] = sp
	}
	g.inflight.Add(1)
	return sp, nil
}

// admitRate charges the subject's token bucket; a drained bucket refuses
// instead of queueing (the caller is told to back off, the pool is not
// used as a queue for over-limit traffic).
func (sp *subjectPool) admitRate(cfg Config) error {
	if cfg.SubjectRate <= 0 {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	now := time.Now()
	sp.tokens += now.Sub(sp.lastFill).Seconds() * cfg.SubjectRate
	if max := float64(cfg.SubjectBurst); sp.tokens > max {
		sp.tokens = max
	}
	sp.lastFill = now
	if sp.tokens < 1 {
		sp.stats.RateLimited++
		return ErrRateLimited
	}
	sp.tokens--
	return nil
}

// checkout hands the caller an exclusively-owned session: a recycled
// idle one (LIFO, keeping the warm set small), a fresh one while the
// subject is under its bound, or — pool exhausted — the next recycled
// session, waited for on the pool's condition.
func (sp *subjectPool) checkout(g *Gateway) (*pooledSession, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	waited := false
	for {
		if n := len(sp.idle); n > 0 {
			ses := sp.idle[n-1]
			sp.idle = sp.idle[:n-1]
			return ses, nil
		}
		if sp.live < g.cfg.MaxSessionsPerSubject {
			c := card.New(g.cfg.Profile)
			ses := &pooledSession{
				sess:        proxy.NewSession(g.cfg.Store, c, g.cfg.Options, g.cfg.Prefetch),
				card:        c,
				provisioned: make(map[string]bool),
				ruleEpochs:  make(map[string]uint64),
			}
			sp.live++
			sp.all = append(sp.all, ses)
			return ses, nil
		}
		if g.isClosed() {
			return nil, ErrClosed
		}
		if !waited {
			waited = true
			sp.stats.Waits++
		}
		sp.cond.Wait()
	}
}

func (g *Gateway) isClosed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// recycle parks a session for the next checkout. On a draining gateway
// the session is retired instead, so Close leaves no warm cards behind.
func (sp *subjectPool) recycle(ses *pooledSession) {
	if err := ses.sess.Reset(); err != nil {
		sp.mu.Lock()
		sp.retireLocked(ses)
		sp.mu.Unlock()
		return
	}
	ses.idleSince = time.Now()
	sp.mu.Lock()
	sp.idle = append(sp.idle, ses)
	sp.stats.Recycles++
	sp.mu.Unlock()
	sp.cond.Signal()
}

// dropLocked removes a session from the pool without classifying the
// drop (caller holds sp.mu and accounts it as a retire, reap, or
// shutdown drop).
func (sp *subjectPool) dropLocked(ses *pooledSession) {
	ses.sess.Close()
	sp.live--
	for i, s := range sp.all {
		if s == ses {
			sp.all = append(sp.all[:i], sp.all[i+1:]...)
			break
		}
	}
	// A waiter can now create a replacement session.
	sp.cond.Signal()
}

// retireLocked drops a failed session (caller holds sp.mu).
func (sp *subjectPool) retireLocked(ses *pooledSession) {
	sp.dropLocked(ses)
	sp.stats.Retires++
}

// noteVersionLocked records the version a query was served from and
// reports whether a rule refresh is owed. The caller holds sp.mu.
func (sp *subjectPool) noteVersionLocked(docID string, version uint32) bool {
	last, seen := sp.docVersions[docID]
	if seen && version <= last {
		// Never regress the record: a stale replica (or a malicious
		// store) serving an older version must not prime a spurious
		// "bump" on the next honestly-served query.
		return false
	}
	sp.docVersions[docID] = version
	if !seen {
		return false
	}
	// Claim the bump: the epoch advance sends every other session of the
	// subject through the re-install path at its next checkout.
	sp.ruleEpochs[docID]++
	return true
}

// RefreshRules re-pulls the subject's sealed rule set for doc — the
// access-rights update protocol at fleet scale. Idle sessions are
// refreshed immediately; checked-out sessions catch up at their next
// checkout via the epoch bump. The card accepts the blob only if its
// version is not older than what is installed, so refreshing is always
// safe to call. An unprovisioned (subject, doc) pair refuses (a refresh
// is not an implicit grant of a key).
func (g *Gateway) RefreshRules(subject, docID string) error {
	g.mu.Lock()
	sp, ok := g.pools[subject]
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: subject %q is not provisioned for document %q", subject, docID)
	}

	sp.mu.Lock()
	if !sp.provisionedDocs[docID] {
		sp.mu.Unlock()
		return fmt.Errorf("fleet: subject %q is not provisioned for document %q", subject, docID)
	}
	sp.ruleEpochs[docID]++
	epoch := sp.ruleEpochs[docID]
	// Take the idle sessions out of the pool so the installs below run on
	// exclusively-owned sessions without holding sp.mu across store I/O.
	idle := sp.idle
	sp.idle = nil
	sp.mu.Unlock()

	var firstErr error
	for _, ses := range idle {
		if err := ses.sess.InstallRules(subject, docID); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ses.ruleEpochs[docID] = epoch
	}

	sp.mu.Lock()
	sp.idle = append(sp.idle, idle...)
	sp.mu.Unlock()
	sp.cond.Broadcast()
	return firstErr
}

// RuleVersion reports the newest rule-set version installed for
// (subject, doc) across the subject's sessions, -1 when the subject has
// no sessions or rules yet (freshness probes).
func (g *Gateway) RuleVersion(subject, docID string) int64 {
	g.mu.Lock()
	sp, ok := g.pools[subject]
	g.mu.Unlock()
	if !ok {
		return -1
	}
	sp.mu.Lock()
	sessions := append([]*pooledSession(nil), sp.all...)
	sp.mu.Unlock()
	best := int64(-1)
	for _, ses := range sessions {
		if v := ses.card.RuleVersion(subject, docID); v > best {
			best = v
		}
	}
	return best
}

// Stats snapshots every subject's aggregated usage, sorted by subject
// for stable reporting. Each snapshot is taken in one pass under the
// subject's lock, so it is internally consistent (no torn meters, never
// BlocksWasted > BlocksFetched).
func (g *Gateway) Stats() []SubjectStats {
	g.mu.Lock()
	pools := make([]*subjectPool, 0, len(g.pools))
	for _, sp := range g.pools {
		pools = append(pools, sp)
	}
	g.mu.Unlock()
	out := make([]SubjectStats, 0, len(pools))
	for _, sp := range pools {
		out = append(out, sp.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subject < out[j].Subject })
	return out
}

// SubjectStats snapshots one subject's aggregated usage (zero value when
// the subject never queried).
func (g *Gateway) SubjectStats(subject string) SubjectStats {
	g.mu.Lock()
	sp, ok := g.pools[subject]
	g.mu.Unlock()
	if !ok {
		return SubjectStats{Subject: subject}
	}
	return sp.snapshot()
}

// snapshot copies the stats in one critical section.
func (sp *subjectPool) snapshot() SubjectStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st := sp.stats
	st.SessionsLive = sp.live
	st.SessionsIdle = len(sp.idle)
	return st
}

// PoolStats aggregates pool telemetry across the whole fleet.
func (g *Gateway) PoolStats() PoolStats {
	var ps PoolStats
	for _, st := range g.Stats() {
		ps.Subjects++
		ps.SessionsLive += st.SessionsLive
		ps.SessionsIdle += st.SessionsIdle
		ps.Provisions += st.Provisions
		ps.Recycles += st.Recycles
		ps.Retires += st.Retires
		ps.Reaped += st.Reaped
		ps.Waits += st.Waits
		ps.RateLimited += st.RateLimited
		ps.Queries += st.Queries
		ps.Errors += st.Errors
		ps.BlocksFetched += st.BlocksFetched
		ps.BlocksWasted += st.BlocksWasted
		ps.VersionRefreshes += st.VersionRefreshes
	}
	ps.SessionsInUse = ps.SessionsLive - ps.SessionsIdle
	return ps
}

// Subjects reports how many session pools the fleet currently holds.
func (g *Gateway) Subjects() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pools)
}

// ReapIdle retires sessions that have been idle longer than olderThan
// and reports how many were dropped. The background reaper calls this
// with Config.IdleTimeout; ReapIdle(0) empties every idle pool.
func (g *Gateway) ReapIdle(olderThan time.Duration) int {
	g.mu.Lock()
	pools := make([]*subjectPool, 0, len(g.pools))
	for _, sp := range g.pools {
		pools = append(pools, sp)
	}
	g.mu.Unlock()

	cutoff := time.Now().Add(-olderThan)
	reaped := 0
	for _, sp := range pools {
		sp.mu.Lock()
		keep := sp.idle[:0]
		for _, ses := range sp.idle {
			if ses.idleSince.After(cutoff) {
				keep = append(keep, ses)
				continue
			}
			sp.dropLocked(ses)
			sp.stats.Reaped++
			reaped++
		}
		sp.idle = keep
		sp.mu.Unlock()
	}
	return reaped
}

// reapLoop is the background idle reaper (IdleTimeout > 0).
func (g *Gateway) reapLoop() {
	defer close(g.reapDone)
	tick := time.NewTicker(g.cfg.IdleTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			g.ReapIdle(g.cfg.IdleTimeout)
		case <-g.reapStop:
			return
		}
	}
}

// Close drains the fleet: new queries are refused, in-flight queries
// finish (their sessions are closed instead of recycled), and Close
// returns once the last one has. The pools stay readable for stats, so
// a daemon can log a final snapshot after draining.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	pools := make([]*subjectPool, 0, len(g.pools))
	for _, sp := range g.pools {
		pools = append(pools, sp)
	}
	g.mu.Unlock()

	if g.reapStop != nil {
		close(g.reapStop)
		<-g.reapDone
	}
	// Wake checkout waiters so they observe the close and bail.
	for _, sp := range pools {
		sp.cond.Broadcast()
	}
	g.inflight.Wait()
	// Every session is now idle (recycle on a closed gateway still
	// parks; the drop below retires them all) or already retired.
	for _, sp := range pools {
		sp.mu.Lock()
		for _, ses := range sp.idle {
			sp.dropLocked(ses)
		}
		sp.idle = nil
		sp.mu.Unlock()
	}
}
