package accessrule

import (
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// Decide computes, for every element and attribute node of the tree, the
// authorization sign under the paper's semantics:
//
//   - a rule applies directly to every node its object selects;
//   - rules propagate to descendants (handled by inheritance below);
//   - Most-Specific-Object-Takes-Precedence: a node with direct rules is
//     decided by them alone, overriding anything inherited;
//   - Denial-Takes-Precedence: among direct rules of a node, one negative
//     rule suffices to deny;
//   - nodes with no applicable rule inherit their parent's decision, the
//     root inheriting the set's DefaultSign.
//
// This is the reference implementation: quadratic, materializing, and
// obviously correct. The streaming evaluator must agree with it on every
// document; property tests enforce that.
func Decide(root *xmlstream.Node, rs *RuleSet) map[*xmlstream.Node]Sign {
	direct := make(map[*xmlstream.Node][]Sign)
	for _, r := range rs.Rules {
		for _, n := range xpath.Select(root, r.Object) {
			direct[n] = append(direct[n], r.Sign)
		}
	}
	out := make(map[*xmlstream.Node]Sign)
	var walk func(n *xmlstream.Node, inherited Sign)
	walk = func(n *xmlstream.Node, inherited Sign) {
		decision := inherited
		if signs, ok := direct[n]; ok {
			decision = Permit
			for _, s := range signs {
				if s == Deny {
					decision = Deny
					break
				}
			}
		}
		out[n] = decision
		for _, c := range n.Children {
			if !c.IsText() {
				walk(c, decision)
			}
		}
	}
	walk(root, rs.DefaultSign)
	return out
}

// ApplyTree computes the authorized view of the document: the tree a
// subject holding rs is allowed to see. Semantics (matching [3], which the
// paper's model simplifies):
//
//   - the text of a node is visible iff the node is permitted;
//   - a permitted element is visible;
//   - a denied element whose subtree contains a visible node is kept as
//     bare structure (tag only, no text, no attributes of its own beyond
//     permitted ones) so the view remains a well-formed tree;
//   - attribute pseudo-elements are all-or-nothing: they are kept iff
//     permitted (a valueless attribute has no structural role).
//
// The result is nil when nothing at all is visible.
func ApplyTree(root *xmlstream.Node, rs *RuleSet) *xmlstream.Node {
	return ApplyTreeQuery(root, rs, nil)
}

// ApplyTreeQuery computes the authorized view restricted to a query: the
// delivered content is the intersection of the authorized view with the
// subtrees matched by the query; ancestors of delivered content are kept
// as bare structure. A nil query delivers the whole authorized view.
func ApplyTreeQuery(root *xmlstream.Node, rs *RuleSet, query *xpath.Path) *xmlstream.Node {
	decisions := Decide(root, rs)
	inMatch := map[*xmlstream.Node]bool{}
	if query != nil {
		for _, m := range xpath.Select(root, query) {
			inMatch[m] = true
		}
	}

	var build func(n *xmlstream.Node, matched bool) *xmlstream.Node
	build = func(n *xmlstream.Node, matched bool) *xmlstream.Node {
		if query != nil && inMatch[n] {
			matched = true
		}
		contentVisible := decisions[n] == Permit && (query == nil || matched)
		if n.IsAttribute() {
			if !contentVisible {
				return nil
			}
			cp := &xmlstream.Node{Name: n.Name}
			for _, c := range n.Children {
				if c.IsText() {
					cp.Children = append(cp.Children, &xmlstream.Node{Text: c.Text})
				}
			}
			return cp
		}
		cp := &xmlstream.Node{Name: n.Name}
		for _, c := range n.Children {
			if c.IsText() {
				if contentVisible {
					cp.Children = append(cp.Children, &xmlstream.Node{Text: c.Text})
				}
				continue
			}
			if kept := build(c, matched); kept != nil {
				cp.Children = append(cp.Children, kept)
			}
		}
		if contentVisible || len(cp.Children) > 0 {
			return cp
		}
		return nil
	}
	return build(root, false).Canonicalize()
}
