package bench

import (
	"fmt"
	"time"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// EngineRun is the outcome of one engine-only evaluation (no card, no
// encryption): the pure streaming-evaluator cost.
type EngineRun struct {
	Stats  core.Stats
	Wall   time.Duration
	Events int
}

// RunEngine evaluates rules (and an optional query) over a pre-encoded
// payload, feeding decoded items straight into the evaluator with a
// discarding emitter. disableSkip turns the index off (the decoder still
// parses records; the evaluator ignores them) — the E1 suspension
// ablation.
func RunEngine(payload []byte, rs *accessrule.RuleSet, query *xpath.Path, disableSkip bool) (*EngineRun, error) {
	dict, dec, err := docenc.ParsePayload(payload)
	if err != nil {
		return nil, err
	}
	eval, err := core.NewEvaluator(core.Config{
		Rules:       rs,
		Query:       query,
		Dict:        dict,
		Emitter:     core.Discard{},
		DisableSkip: disableSkip,
	})
	if err != nil {
		return nil, err
	}
	events := 0
	var valueBuf []byte
	start := time.Now()
	for {
		it, err := dec.Next()
		if err != nil {
			return nil, err
		}
		switch it.Kind {
		case docenc.ItemOpen:
			events++
			skip, err := eval.Open(it.Code, it.Meta)
			if err != nil {
				return nil, err
			}
			if skip > 0 {
				if err := dec.SkipContent(it.Meta); err != nil {
					return nil, err
				}
			}
		case docenc.ItemValue:
			events++
			if err := eval.Value(it.Text); err != nil {
				return nil, err
			}
		case docenc.ItemValueStart:
			valueBuf = valueBuf[:0]
		case docenc.ItemValueChunk:
			valueBuf = append(valueBuf, it.Text...)
			if it.Last {
				events++
				if err := eval.Value(valueBuf); err != nil {
					return nil, err
				}
			}
		case docenc.ItemClose:
			events++
			if err := eval.Close(); err != nil {
				return nil, err
			}
		case docenc.ItemEOF:
			if err := eval.Finish(); err != nil {
				return nil, err
			}
			return &EngineRun{Stats: eval.Stats(), Wall: time.Since(start), Events: events}, nil
		}
	}
}

// MustPayload encodes a document payload or panics (harness setup).
func MustPayload(root *xmlstream.Node, opts docenc.EncodeOptions) []byte {
	payload, _, err := docenc.EncodePayload(root, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding payload: %v", err))
	}
	return payload
}

// PullRig is a full publish→provision→query bench fixture: one published
// document, and one card queried through a proxy.Session the rig owns.
type PullRig struct {
	Store *dsp.MemStore
	Key   secure.DocKey
	DocID string
	Info  *docenc.EncodeInfo

	card *card.Card
	sess *proxy.Session
	opts soe.Options
}

// NewPullRig publishes doc and provisions a card with the given rule set.
func NewPullRig(doc *xmlstream.Node, docID string, profile card.Profile, encOpts docenc.EncodeOptions, rs *accessrule.RuleSet) (*PullRig, error) {
	r := &PullRig{
		Store: dsp.NewMemStore(),
		Key:   secure.KeyFromSeed("bench:" + docID),
		DocID: docID,
	}
	encOpts.DocID = docID
	encOpts.Key = r.Key
	pub := &proxy.Publisher{Store: r.Store}
	info, err := pub.PublishDocument(doc, encOpts)
	if err != nil {
		return nil, err
	}
	r.Info = info
	rs.DocID = docID
	if err := pub.GrantRules(r.Key, rs); err != nil {
		return nil, err
	}
	return r, r.FreshCard(profile, rs.Subject)
}

// Query runs one pull query under the given session options. Other
// options than the previous query's start a new session on the same card.
func (r *PullRig) Query(subject, query string, opts soe.Options) (*proxy.Result, error) {
	if opts != r.opts {
		r.Close()
		r.sess, r.opts = proxy.NewSession(r.Store, r.card, opts, 0), opts
	}
	return r.sess.Query(subject, r.DocID, query)
}

// FreshCard replaces the rig's card and session (per-iteration isolation
// for RAM experiments) and reinstalls the subject's rules.
func (r *PullRig) FreshCard(profile card.Profile, subject string) error {
	r.Close()
	r.card = card.New(profile)
	if err := r.card.PutKey(r.DocID, r.Key); err != nil {
		return err
	}
	r.sess = proxy.NewSession(r.Store, r.card, r.opts, 0)
	return r.sess.InstallRules(subject, r.DocID)
}

// Close retires the rig's session.
func (r *PullRig) Close() {
	if r.sess != nil {
		r.sess.Close()
	}
}
