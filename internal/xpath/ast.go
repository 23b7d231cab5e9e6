// Package xpath implements the XPath fragment XP{[],*,//} used by the
// paper for both access-control rule objects and user queries.
//
// The fragment (Miklau & Suciu's robust subset, cited as [7] in the paper)
// consists of node tests, the child axis (/), the descendant-or-self axis
// (//), wildcards (*) and predicates ([...]). We additionally support
// attribute tests (@name, matching the '@' pseudo-elements produced by
// package xmlstream) and text-equality comparisons inside predicates
// ([price = "42"]), both of which the demonstrated applications rely on.
//
// Besides parsing, the package provides a reference, tree-based evaluator
// (Select, Matches). The streaming automaton engine in internal/automaton
// and internal/core is validated against this oracle by property tests.
package xpath

import "strings"

// Axis is the navigation axis of a step.
type Axis uint8

// The two axes of the fragment.
const (
	// Child is the '/' axis.
	Child Axis = iota
	// Descendant is the '//' axis (descendant-or-self applied to the next
	// node test, per the usual abbreviated-syntax semantics).
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Comparison is the operator of a predicate.
type Comparison uint8

// Predicate operators.
const (
	// Exists tests mere existence of the predicate path: [a/b].
	Exists Comparison = iota
	// Eq tests text equality of a selected node: [a/b = "v"].
	Eq
	// Neq tests text inequality: [a/b != "v"].
	Neq
)

// Pred is a branch predicate attached to a step.
type Pred struct {
	// Path is the relative path of the predicate. A nil Path denotes the
	// context node itself ('.'), which is only meaningful with Eq/Neq.
	Path *Path
	// Cmp is the comparison operator; Exists if the predicate is a bare
	// path.
	Cmp Comparison
	// Value is the literal compared against (Eq/Neq only).
	Value string
}

// Step is one location step: an axis, a node test and its predicates.
type Step struct {
	Axis Axis
	// Name is the node test: an element name, an attribute test "@name",
	// the element wildcard "*", or the attribute wildcard "@*".
	Name string
	// Preds are the step's predicates, all of which must hold.
	Preds []Pred
}

// Wildcard reports whether the step's node test is "*" or "@*".
func (s Step) Wildcard() bool { return s.Name == "*" || s.Name == "@*" }

// MatchesName reports whether the node test accepts the given
// element/attribute name (attributes carry their '@' prefix).
func (s Step) MatchesName(name string) bool {
	isAttr := strings.HasPrefix(name, "@")
	switch s.Name {
	case "*":
		return !isAttr
	case "@*":
		return isAttr
	default:
		return s.Name == name
	}
}

// Path is a parsed XP{[],*,//} expression. Rule objects and queries are
// absolute paths (rooted at the document); predicate paths are relative.
type Path struct {
	Steps []Step
}

// String reconstructs the textual form of the path. Absolute and relative
// paths are distinguished by how the first step is printed: absolute paths
// always start with an axis token, relative paths omit a leading '/'.
func (p *Path) String() string { return p.text(true) }

// RelString renders the path as a relative expression (used for predicate
// paths).
func (p *Path) RelString() string { return p.text(false) }

func (p *Path) text(absolute bool) string {
	if p == nil {
		return "."
	}
	var b strings.Builder
	for i, s := range p.Steps {
		switch {
		case i == 0 && !absolute && s.Axis == Child:
			// relative first step: bare name
		default:
			b.WriteString(s.Axis.String())
		}
		b.WriteString(s.Name)
		for _, pr := range s.Preds {
			b.WriteString("[")
			if pr.Path == nil {
				b.WriteString(".")
			} else {
				b.WriteString(pr.Path.RelString())
			}
			switch pr.Cmp {
			case Eq:
				b.WriteString(" = " + quote(pr.Value))
			case Neq:
				b.WriteString(" != " + quote(pr.Value))
			}
			b.WriteString("]")
		}
	}
	return b.String()
}

// quote renders a literal inside the quote it does not contain; the
// parser ends a literal at its own quote, so no parsed value holds both.
func quote(v string) string {
	if strings.Contains(v, `"`) {
		return "'" + v + "'"
	}
	return `"` + v + `"`
}

// Equal reports structural equality of two paths.
func (p *Path) Equal(o *Path) bool {
	if p == nil || o == nil {
		return p == o
	}
	if len(p.Steps) != len(o.Steps) {
		return false
	}
	for i := range p.Steps {
		a, b := p.Steps[i], o.Steps[i]
		if a.Axis != b.Axis || a.Name != b.Name || len(a.Preds) != len(b.Preds) {
			return false
		}
		for j := range a.Preds {
			pa, pb := a.Preds[j], b.Preds[j]
			if pa.Cmp != pb.Cmp || pa.Value != pb.Value || !pa.Path.Equal(pb.Path) {
				return false
			}
		}
	}
	return true
}

// HasDescendant reports whether any step (including predicate paths) uses
// the descendant axis. Paths without '//' have a fixed evaluation depth.
func (p *Path) HasDescendant() bool {
	if p == nil {
		return false
	}
	for _, s := range p.Steps {
		if s.Axis == Descendant {
			return true
		}
		for _, pr := range s.Preds {
			if pr.Path.HasDescendant() {
				return true
			}
		}
	}
	return false
}

// NameTests returns every concrete (non-wildcard) name test mentioned in
// the path, including inside predicates. The skip index uses this set to
// decide whether a rule can possibly apply inside a subtree.
func (p *Path) NameTests() []string {
	seen := make(map[string]bool)
	var out []string
	p.collectNames(seen, &out)
	return out
}

func (p *Path) collectNames(seen map[string]bool, out *[]string) {
	if p == nil {
		return
	}
	for _, s := range p.Steps {
		if !s.Wildcard() && !seen[s.Name] {
			seen[s.Name] = true
			*out = append(*out, s.Name)
		}
		for _, pr := range s.Preds {
			pr.Path.collectNames(seen, out)
		}
	}
}

// PredCount returns the total number of predicates in the path, including
// nested ones.
func (p *Path) PredCount() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, s := range p.Steps {
		n += len(s.Preds)
		for _, pr := range s.Preds {
			n += pr.Path.PredCount()
		}
	}
	return n
}
