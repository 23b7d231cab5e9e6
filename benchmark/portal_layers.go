package main

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// portalLadder holds what the rungs below the wire need: the seeded
// operation list, one provisioned card per subject (a card does not
// depend on the store its session pulls from, so the rungs share them),
// and the plaintext and ciphertext of every document.
type portalLadder struct {
	p   *portalHot
	ops []struct{ subject, doc int }

	cards      []*card.Card
	containers []*docenc.Container
	headers    [][]byte
	events     [][]xmlstream.Event
	rules      [][]*accessrule.RuleSet // [doc][profile]

	results []*proxy.Result
	cardRungs
}

func newPortalLadder(p *portalHot, n int) (*portalLadder, error) {
	c := p.corpus
	l := &portalLadder{p: p, results: make([]*proxy.Result, n), cardRungs: cardRungs{fed: make([][]int, n)}}
	picks := c.pairs(p.clients + 1)
	for i := 0; i < n; i++ {
		s, d := picks.next()
		l.ops = append(l.ops, struct{ subject, doc int }{s, d})
	}
	for d, id := range c.docIDs {
		h, err := p.rig.fs.Header(id)
		if err != nil {
			return nil, err
		}
		blocks, err := p.rig.fs.ReadBlocks(id, 0, h.NumBlocks())
		if err != nil {
			return nil, err
		}
		hdr, err := h.MarshalBinary()
		if err != nil {
			return nil, err
		}
		l.containers = append(l.containers, &docenc.Container{Header: h, Blocks: blocks})
		l.headers = append(l.headers, hdr)
		l.events = append(l.events, c.tree(d).Events())
		rules, err := oracleRules(portalProfiles, id)
		if err != nil {
			return nil, err
		}
		l.rules = append(l.rules, rules)
	}
	// Provision every card for every document, the way the fleet does on
	// a session's first query, but before anything is timed.
	for s, subject := range c.subjects {
		cd := card.New(card.Modern)
		for _, id := range c.docIDs {
			sealed, err := p.rig.fs.RuleSet(id, subject)
			if err != nil {
				return nil, err
			}
			if err := cd.PutKey(id, secure.KeyFromSeed(id)); err != nil {
				return nil, err
			}
			if err := cd.PutSealedRuleSet(id, subject, sealed); err != nil {
				return nil, fmt.Errorf("provisioning subject %d: %w", s, err)
			}
		}
		l.cards = append(l.cards, cd)
	}
	return l, nil
}

// sessions builds one pull session per subject over store, on the
// ladder's cards.
func (l *portalLadder) sessions(store dsp.Store, prefetch int) []*proxy.Session {
	out := make([]*proxy.Session, len(l.cards))
	for s, cd := range l.cards {
		out[s] = proxy.NewSession(store, cd, soe.Options{}, prefetch)
	}
	return out
}

// sessionQuery runs operation i on the subject's session and checks the
// tree against the wire oracle's XML only by version: the wire rung
// already compared every byte.
func (l *portalLadder) sessionQuery(ss []*proxy.Session, i int) error {
	op := l.ops[i]
	res, err := ss[op.subject].Query(l.p.corpus.subjects[op.subject], l.p.corpus.docIDs[op.doc], "")
	if err == nil && res.Version != 1 {
		err = fmt.Errorf("session served version %d", res.Version)
	}
	return err
}

// driveOp runs operation i's card session with no terminal around it.
func (l *portalLadder) driveOp(i int) error {
	op := l.ops[i]
	return l.drive(i, l.cards[op.subject], l.p.corpus.subjects[op.subject], l.containers[op.doc], l.headers[op.doc])
}

func (l *portalLadder) filter(i int) error {
	op := l.ops[i]
	_, _, err := core.Filter(l.events[op.doc], l.rules[op.doc][op.subject%len(portalProfiles)], nil)
	return err
}

// portalLayers are the layers of the query path, outermost first; their
// self times are what trace.unattributed_pct sums.
var portalLayers = []string{"gateway", "xmlstream", "fleet", "proxy", "dsp", "soe", "secure"}

// layers measures portal_hot from outside: the daemons' own counters
// over a closed-loop window, an untraced single client for reference,
// the ladder, the probes of the layers the ladder does not reach, and
// the open-loop figures.
func (p *portalHot) layers(dir string, d time.Duration, tr *tracer) (map[string]float64, *window, error) {
	if err := p.setup(dir); err != nil {
		_ = p.close()
		return nil, nil, err
	}
	defer p.close()
	m := make(map[string]float64)

	snap0, cache0 := p.rig.gwSrv.Snapshot(), p.rig.dspCache.Stats()
	w, _ := p.run(d / 6)
	maps.Copy(m, gatewayCounters(snap0, p.rig.gwSrv.Snapshot()))
	m["dsp.cache_hit_ratio"] = hitRatio(cache0, p.rig.dspCache.Stats())
	var queries, respBytes int64
	for _, r := range p.readers {
		queries += r.queries
		respBytes += r.respBytes
	}
	m["gateway.resp_bytes_per_query"] = ratio(float64(respBytes), float64(queries))

	one, err := dialReader(p.rig.gwAddr, p.corpus, p.clients)
	if err != nil {
		return nil, nil, err
	}
	defer one.conn.Close()
	one.check = p.checkFirstVersion
	plain := runClients([]*client{one.client()}, d/6)
	w.absorb(plain)

	l, err := newPortalLadder(p, p.corpus.sz.ladderOps)
	if err != nil {
		return nil, nil, err
	}
	timedStore, timed := newTimedStore(p.rig.gwCache, tr)
	overGateway := l.sessions(timedStore, gatewayPrefetch)
	overFile := l.sessions(p.rig.fs, gatewayPrefetch)
	c := p.corpus
	climb(tr, 0, len(l.ops), []rung{
		{name: "gateway:Session.Query", parent: -1, call: func(i, _, _ int) error {
			_, verify, err := one.query(l.ops[i].subject, l.ops[i].doc)
			if err == nil {
				err = verify()
			}
			return err
		}},
		{name: "fleet:Gateway.Query", parent: 0, call: func(i, _, _ int) (err error) {
			l.results[i], err = p.rig.fl.Query(c.subjects[l.ops[i].subject], c.docIDs[l.ops[i].doc], "")
			return err
		}},
		{name: "xmlstream:Result.XML", parent: 0, call: func(i, _, _ int) error {
			if l.results[i] == nil {
				return fmt.Errorf("no result to serialize")
			}
			if xml := l.results[i].XML(); xml != p.expected[l.ops[i].doc][l.ops[i].subject%len(portalProfiles)] {
				return fmt.Errorf("fleet result differs from the oracle's view")
			}
			l.results[i] = nil
			return nil
		}},
		{name: "proxy:Session.Query", parent: 1, call: func(i, trace, span int) error {
			timed.under(trace, span)
			return l.sessionQuery(overGateway, i)
		}},
		{name: "soe:Session.Feed", parent: 3, call: func(i, _, _ int) error { return l.driveOp(i) }},
		{name: "secure:BlockContext.DecryptBlocks", parent: 4, call: func(i, _, _ int) error {
			return decryptFed(l.cards[l.ops[i].subject], l.containers[l.ops[i].doc], l.fed[i])
		}},
		// Beside the chain, two reference figures. The reference filter
		// on the plaintext events is not a part of the card session: it
		// builds a dictionary and a result tree the card never does, and
		// sees no skip index. And the same session queries on the
		// in-process durable store show what the store path (cache over
		// pool) adds to a session that the pipeline does not hide.
		{name: "core:Filter", parent: -1, call: func(i, _, _ int) error { return l.filter(i) }},
		{name: "proxy.filestore:Session.Query", parent: -1, call: func(i, _, _ int) error { return l.sessionQuery(overFile, i) }},
	}, w)

	total, self := tr.perTrace()
	n := float64(len(l.ops))
	m["gateway.self_us"] = us(medianDur(self["gateway"]))
	m["xmlstream.serialize_us"] = us(medianDur(total["xmlstream"]))
	m["fleet.self_us"] = us(medianDur(self["fleet"]))
	m["proxy.self_us"] = us(medianDur(self["proxy"]))
	m["proxy.dsp_wait_us"] = us(medianDur(total["dsp"]))
	m["proxy.dsp_roundtrips_per_query"] = float64(timed.calls.Load()) / n
	m["proxy.dsp_unoverlapped_us"] = us(medianDur(total["proxy"]) - medianDur(total["proxy.filestore"]))
	l.metrics(m, total, self)
	traceClosure(m, plain.lat.pct(50), medianDur(total["gateway"]), self, portalLayers)

	if err := p.pipelineGain(l, m); err != nil {
		return nil, nil, err
	}
	if err := p.codecProbes(m); err != nil {
		return nil, nil, err
	}
	if err := p.openLoop(d/3, m, w); err != nil {
		return nil, nil, err
	}
	return m, w, nil
}

// pipelineGain compares the serial pull loop with the prefetch pipeline
// where the store is a round trip away: sessions straight over the pool,
// no cache in between.
func (p *portalHot) pipelineGain(l *portalLadder, m map[string]float64) error {
	n := max(1, len(l.ops)/4)
	var p50 [2]time.Duration
	for k, prefetch := range []int{0, gatewayPrefetch} {
		ss := l.sessions(p.rig.pool, prefetch)
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := l.sessionQuery(ss, i); err != nil {
				return fmt.Errorf("pipeline probe at depth %d: %w", prefetch, err)
			}
			lat = append(lat, time.Since(start))
		}
		p50[k] = medianDur(lat)
	}
	m["proxy.pipeline_gain"] = ratio(float64(p50[0]), float64(p50[1]))
	return nil
}

// codecProbes times the publisher-side layers on the corpus: encoding a
// document, and encrypting one block.
func (p *portalHot) codecProbes(m map[string]float64) error {
	var encode time.Duration
	var plainBytes, storedBytes int
	var con *docenc.Container
	for d := range p.corpus.docIDs {
		tree := p.corpus.tree(d)
		plainBytes += len(workload.Text(tree))
		start := time.Now()
		c, info, err := docenc.Encode(tree, p.corpus.encodeOptions(d))
		encode += time.Since(start)
		if err != nil {
			return err
		}
		storedBytes += info.StoredBytes
		con = c
	}
	m["docenc.encode_us_per_kb"] = ratio(us(encode), float64(plainBytes)/1024)
	m["docenc.stored_bytes_per_plain_byte"] = ratio(float64(storedBytes), float64(plainBytes))

	opts := p.corpus.encodeOptions(len(p.corpus.docIDs) - 1)
	payload, err := con.DecryptPayload(opts.Key)
	if err != nil {
		return err
	}
	ctx, err := secure.NewBlockContext(opts.Key)
	if err != nil {
		return err
	}
	const rounds = 2000
	blocks := len(payload) / opts.BlockPlain
	start := time.Now()
	for i := 0; i < rounds; i++ {
		b := i % blocks
		if _, err := ctx.EncryptBlock(opts.DocID, 1, uint32(b), payload[b*opts.BlockPlain:(b+1)*opts.BlockPlain]); err != nil {
			return err
		}
	}
	m["secure.encrypt_us_per_block"] = us(time.Since(start)) / rounds
	return nil
}
