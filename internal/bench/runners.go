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

// PullRig is a full publish→provision→query bench fixture.
type PullRig struct {
	Store *dsp.MemStore
	Card  *card.Card
	Term  *proxy.Terminal
	Key   secure.DocKey
	DocID string
	Info  *docenc.EncodeInfo
}

// NewPullRig publishes doc and provisions a card with the given rule set.
func NewPullRig(doc *xmlstream.Node, docID string, profile card.Profile, encOpts docenc.EncodeOptions, rs *accessrule.RuleSet) (*PullRig, error) {
	r := &PullRig{
		Store: dsp.NewMemStore(),
		Card:  card.New(profile),
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
	if err := r.Card.PutKey(docID, r.Key); err != nil {
		return nil, err
	}
	r.Term = &proxy.Terminal{Store: r.Store, Card: r.Card}
	rs.DocID = docID
	if err := pub.GrantRules(r.Key, rs); err != nil {
		return nil, err
	}
	if err := r.Term.InstallRules(rs.Subject, docID); err != nil {
		return nil, err
	}
	return r, nil
}

// Query runs one pull query under the given session options.
func (r *PullRig) Query(subject, query string, opts soe.Options) (*proxy.Result, error) {
	r.Term.Options = opts
	return r.Term.Query(subject, r.DocID, query)
}

// FreshCard replaces the rig's card (per-iteration isolation for RAM
// experiments) and reinstalls the subject's rules.
func (r *PullRig) FreshCard(profile card.Profile, subject string) error {
	r.Card = card.New(profile)
	if err := r.Card.PutKey(r.DocID, r.Key); err != nil {
		return err
	}
	r.Term = &proxy.Terminal{Store: r.Store, Card: r.Card}
	return r.Term.InstallRules(subject, r.DocID)
}
