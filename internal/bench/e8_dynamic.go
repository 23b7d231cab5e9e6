package bench

import (
	"fmt"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// E8DynamicRules quantifies the paper's motivating claim: client-side
// evaluation "dissociat[es] access rights from encryption", so changing a
// sharing policy costs one re-sealed rule blob, whereas the classical
// server-encryption schemes ([1, 6] in the paper) key-partition the
// document by sharing configuration and must re-encrypt and re-key every
// subtree whose audience changes.
//
// The baseline is modelled faithfully to those schemes: nodes are grouped
// by authorization signature (the exact set of subjects permitted to read
// them); each group has its own key; a policy change re-encrypts every
// node whose signature changes and distributes each new group key to the
// group's audience.
func E8DynamicRules() []*Table {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 9, Members: 20, EventsPerMember: 8})

	// The community's current policy.
	policies := map[string]string{
		"alice": "subject alice\ndefault +",
		"bob":   "subject bob\ndefault -\n+ /agenda\n- //phone\n- //notes",
		"carol": `subject carol` + "\n" + `default -` + "\n" + `+ //event[visibility = "public"]`,
		"dave":  `subject dave` + "\n" + `default -` + "\n" + `+ //member[@user = "user03"]`,
	}

	changes := []struct {
		name    string
		subject string
		newText string
	}{
		{"widen: bob gains //notes", "bob",
			"subject bob\ndefault -\n+ /agenda\n- //phone"},
		{"revoke: alice loses //phone", "alice",
			"subject alice\ndefault +\n- //phone"},
		{"exception: carol gains friends events", "carol",
			`subject carol` + "\n" + `default -` + "\n" + `+ //event[visibility = "public"]` + "\n" + `+ //event[visibility = "friends"]`},
		{"membership: eve joins (read-most profile)", "eve",
			"subject eve\ndefault -\n+ /agenda\n- //phone\n- //notes\n- //email"},
	}

	t := &Table{
		ID:    "E8",
		Title: "cost of one policy change: this system vs static encryption-per-subset",
		Columns: []string{"change", "rules KB (this system)", "re-encrypted KB (baseline)",
			"doc fraction", "keys re-distributed"},
		Notes: []string{
			"this system: bytes uploaded to the DSP = one sealed rule blob; the document is untouched",
			"baseline: subtree bytes whose audience changed, re-encrypted under fresh subset keys",
		},
	}

	for _, ch := range changes {
		before := decideAll(doc, policies)
		after := map[string]string{}
		for k, v := range policies {
			after[k] = v
		}
		after[ch.subject] = ch.newText
		afterDec := decideAll(doc, after)

		// This system's cost: the new sealed blob.
		rs := workload.MustParseRules(ch.newText)
		rs.DocID = "agenda"
		rs.Version = 2
		sealed, err := card.SealRuleSet(secure.KeyFromSeed("e8"), rs)
		if err != nil {
			panic(err)
		}

		reenc, totalBytes, keys := baselineCost(doc, before, afterDec)
		t.AddRow(
			ch.name,
			fmt.Sprintf("%.2f", float64(len(sealed))/1024),
			kb(reenc),
			pct(float64(reenc), float64(totalBytes)),
			fmt.Sprintf("%d", keys),
		)
	}
	return []*Table{t}
}

// decideAll evaluates every subject's policy over the document.
func decideAll(doc *xmlstream.Node, policies map[string]string) map[string]map[*xmlstream.Node]accessrule.Sign {
	sets := make(map[string]*accessrule.RuleSet, len(policies))
	for subject, text := range policies {
		sets[subject] = workload.MustParseRules(text)
	}
	return decideSets(doc, sets)
}

// decideSets evaluates parsed policies over the document.
func decideSets(doc *xmlstream.Node, policies map[string]*accessrule.RuleSet) map[string]map[*xmlstream.Node]accessrule.Sign {
	out := make(map[string]map[*xmlstream.Node]accessrule.Sign, len(policies))
	for subject, rs := range policies {
		out[subject] = accessrule.Decide(doc, rs)
	}
	return out
}

// baselineCost computes the static scheme's re-encryption bill: bytes of
// nodes whose audience signature changed, total document bytes, and the
// number of (key, subject) distributions the new groups require.
func baselineCost(doc *xmlstream.Node, before, after map[string]map[*xmlstream.Node]accessrule.Sign) (reencrypted, total int64, keyDistributions int) {
	subjects := make([]string, 0, len(after))
	for s := range after {
		subjects = append(subjects, s)
	}
	// Include joining/leaving subjects in the signature space.
	for s := range before {
		if _, ok := after[s]; !ok {
			subjects = append(subjects, s)
		}
	}

	sig := func(dec map[string]map[*xmlstream.Node]accessrule.Sign, n *xmlstream.Node) string {
		out := make([]byte, len(subjects))
		for i, s := range subjects {
			if d, ok := dec[s]; ok && d[n] == accessrule.Permit {
				out[i] = '1'
			} else {
				out[i] = '0'
			}
		}
		return string(out)
	}

	changedSigs := map[string]bool{}
	var walk func(n *xmlstream.Node)
	walk = func(n *xmlstream.Node) {
		if n.IsText() {
			return
		}
		bytes := nodeOwnBytes(n)
		total += bytes
		sb, sa := sig(before, n), sig(after, n)
		if sb != sa {
			reencrypted += bytes
			changedSigs[sa] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(doc)

	for s := range changedSigs {
		for _, c := range s {
			if c == '1' {
				keyDistributions++
			}
		}
	}
	return reencrypted, total, keyDistributions
}

// nodeOwnBytes approximates a node's own stored footprint: its tags plus
// its direct text (children counted on their own).
func nodeOwnBytes(n *xmlstream.Node) int64 {
	b := int64(2*len(n.Name) + 5)
	for _, c := range n.Children {
		if c.IsText() {
			b += int64(len(c.Text))
		}
	}
	return b
}
