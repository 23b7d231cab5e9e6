package main

import (
	"fmt"
	"math/rand"

	"repro/internal/accessrule"
	"repro/internal/core"
	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// sizes scales the inputs. full is what BENCHMARK.json measures; the
// self-test shrinks everything so the whole rig runs in seconds.
type sizes struct {
	portalDocs, portalSubjects int
	patients, visits           int

	coldDocs, coldSegments, coldPayload int
	coldCacheBytes                      int64
	coldRun                             int // blocks per batched read

	mixCheckpointBytes int64

	fanoutSegments, fanoutPayload, fanoutSubscribers int

	// ladderOps is the length of the seeded operation list the traced
	// single-client pass runs at every depth.
	ladderOps int
}

var fullSizes = sizes{
	portalDocs: 16, portalSubjects: 32, patients: 30, visits: 4,
	// store_cold's corpus is 4 MiB, not tens: what matters is that it is
	// four times dspd's cache and served from checkpoint images. A
	// 65 MiB corpus streams through DRAM, and the run then followed the
	// host's other tenants (reads/s flipping between 28 000, 20 000 and
	// 14 000 for seconds at a time, and falling by a third for minutes)
	// where this one repeats within a few percent.
	coldDocs: 4, coldSegments: 500, coldPayload: 2048, coldCacheBytes: 1 << 20, coldRun: 64,
	mixCheckpointBytes: 1 << 20,
	fanoutSegments:     120, fanoutPayload: 512, fanoutSubscribers: 16,
	ladderOps: 1000,
}

var testSizes = sizes{
	portalDocs: 3, portalSubjects: 8, patients: 4, visits: 2,
	coldDocs: 2, coldSegments: 40, coldPayload: 512, coldCacheBytes: 64 << 10, coldRun: 8,
	mixCheckpointBytes: 16 << 10,
	fanoutSegments:     24, fanoutPayload: 128, fanoutSubscribers: 4,
	ladderOps: 16,
}

// portalProfiles are the eight access profiles the portal subjects
// cycle through (E10's tenants): they span full scans and skip-heavy
// views, so both the linear pipeline and its speculation waste run.
var portalProfiles = []string{
	"default +",
	"default +\n- //ssn\n- //report",
	"default +\n- //ssn",
	"default -\n+ //emergency\n+ //patient/name",
	"default -\n+ //patient/name\n+ //visit/date",
	"default -\n+ //diagnosis",
	"default +\n- //contact",
	"default -\n+ //emergency",
}

// fanoutProfiles are E7's four parental-control profiles.
var fanoutProfiles = []string{
	"default -\n+ //segment[@rating = \"all\"]",
	"default +\n- //segment[@rating = \"adult\"]",
	"default +",
	"default -\n+ //segment[meta/rating = \"all\"]",
}

// parseRules builds the rule set of one (subject, document) grant.
func parseRules(profile, subject, docID string) (*accessrule.RuleSet, error) {
	rs, err := accessrule.ParseSet("subject " + subject + "\n" + profile)
	if err != nil {
		return nil, err
	}
	rs.DocID = docID
	return rs, nil
}

// oracleRules parses every profile for one document, for the oracle and
// the probes that filter plaintext themselves.
func oracleRules(profiles []string, docID string) ([]*accessrule.RuleSet, error) {
	out := make([]*accessrule.RuleSet, len(profiles))
	for p, profile := range profiles {
		rs, err := parseRules(profile, "oracle", docID)
		if err != nil {
			return nil, err
		}
		out[p] = rs
	}
	return out, nil
}

// view is the oracle: the authorized view of a plaintext tree computed
// by the reference streaming filter, serialized the way a served reply
// is ("" when nothing is visible).
func view(tree *xmlstream.Node, rules *accessrule.RuleSet) (string, error) {
	out, _, err := core.Filter(tree.Events(), rules, nil)
	if err != nil {
		return "", err
	}
	if out == nil {
		return "", nil
	}
	return xmlstream.Serialize(out.Events(), xmlstream.WriterOptions{Indent: "  "})
}

// portalCorpus is the medical-folder corpus of portal_hot and
// republish_mix: documents, subjects, and each subject's profile.
type portalCorpus struct {
	seed     int64
	sz       sizes
	docIDs   []string
	subjects []string
}

func newPortalCorpus(seed int64, sz sizes) *portalCorpus {
	c := &portalCorpus{seed: seed, sz: sz}
	for d := 0; d < sz.portalDocs; d++ {
		c.docIDs = append(c.docIDs, fmt.Sprintf("folder-%02d", d))
	}
	for s := 0; s < sz.portalSubjects; s++ {
		c.subjects = append(c.subjects, fmt.Sprintf("subj-%02d", s))
	}
	return c
}

// tree generates document d at its first version; every call returns a
// fresh tree, so the writer and the oracle never share one.
func (c *portalCorpus) tree(d int) *xmlstream.Node {
	return workload.MedicalFolder(workload.MedicalConfig{
		Seed: c.seed*1000 + int64(d), Patients: c.sz.patients, VisitsPerPatient: c.sz.visits,
	})
}

func (c *portalCorpus) encodeOptions(d int) docenc.EncodeOptions {
	id := c.docIDs[d]
	return docenc.EncodeOptions{DocID: id, Version: 1, Key: secure.KeyFromSeed(id), BlockPlain: 256, MinSkipBytes: 32}
}

func (c *portalCorpus) profile(subject int) string {
	return portalProfiles[subject%len(portalProfiles)]
}

// editor replays the writer's seed-determined edit sequence on one
// document: edit k overwrites one patient's contact field with a string
// of the same length, so a commit changes one block (two when the field
// straddles a block boundary) and the payload geometry never moves.
type editor struct {
	rng  *rand.Rand
	tree *xmlstream.Node
}

func (c *portalCorpus) editor(d int) *editor {
	return &editor{rng: rand.New(rand.NewSource(c.seed*7919 + int64(d))), tree: c.tree(d)}
}

// next applies the next edit in place.
func (e *editor) next() {
	patients := e.tree.Children
	p := patients[e.rng.Intn(len(patients))]
	text := fmt.Sprintf("+33 1 %08d", e.rng.Intn(100_000_000))
	for _, ch := range p.Children {
		if ch.Name == "contact" {
			ch.Children[0].Text = text
			return
		}
	}
}

// pairs is one client's seed-determined stream of (subject, doc) picks.
type pairs struct {
	rng            *rand.Rand
	subjects, docs int
}

func (c *portalCorpus) pairs(client int) *pairs {
	return &pairs{
		rng:      rand.New(rand.NewSource(c.seed*104729 + int64(client))),
		subjects: len(c.subjects), docs: len(c.docIDs),
	}
}

func (p *pairs) next() (subject, doc int) {
	return p.rng.Intn(p.subjects), p.rng.Intn(p.docs)
}
