package xmlstream

import (
	"fmt"
	"strings"
)

// Node is a materialized document tree. The streaming engine never builds
// one (that is the point of the paper), but tests, workload generators and
// the terminal-side result assembler do.
type Node struct {
	// Name is the element name; "" marks a text node.
	Name string
	// Text is the content of a text node.
	Text string
	// Children are element and text children in document order. Attribute
	// pseudo-elements ('@' prefix) appear first.
	Children []*Node
}

// IsText reports whether the node is a text node.
func (n *Node) IsText() bool { return n.Name == "" }

// IsAttribute reports whether the node is an attribute pseudo-element
// (name starting with '@').
func (n *Node) IsAttribute() bool {
	return strings.HasPrefix(n.Name, "@")
}

// BuildTree materializes an event stream into a tree. The stream must
// contain exactly one balanced root element.
func BuildTree(evs []Event) (*Node, error) {
	var stack []*Node
	var root *Node
	for i, ev := range evs {
		switch ev.Kind {
		case Open:
			n := &Node{Name: ev.Name}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			} else {
				if root != nil {
					return nil, fmt.Errorf("xmlstream: second root <%s> at event %d", ev.Name, i)
				}
				root = n
			}
			stack = append(stack, n)
		case Value:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlstream: value outside root at event %d", i)
			}
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, &Node{Text: ev.Text})
		case Close:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlstream: unbalanced close </%s> at event %d", ev.Name, i)
			}
			top := stack[len(stack)-1]
			if top.Name != ev.Name {
				return nil, fmt.Errorf("xmlstream: close </%s> does not match <%s> at event %d", ev.Name, top.Name, i)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlstream: %d element(s) left open", len(stack))
	}
	if root == nil {
		return nil, fmt.Errorf("xmlstream: empty stream")
	}
	return root, nil
}

// Events flattens the tree back into an event stream, in a slice of
// exactly its length.
func (n *Node) Events() []Event {
	evs := make([]Event, 0, n.countEvents())
	n.appendEvents(&evs)
	return evs
}

// countEvents is len(n.Events()): one event per text node, two per
// element.
func (n *Node) countEvents() int {
	if n.IsText() {
		return 1
	}
	total := 2
	for _, c := range n.Children {
		total += c.countEvents()
	}
	return total
}

func (n *Node) appendEvents(evs *[]Event) {
	if n.IsText() {
		*evs = append(*evs, ValueEvent(n.Text))
		return
	}
	*evs = append(*evs, OpenEvent(n.Name))
	for _, c := range n.Children {
		c.appendEvents(evs)
	}
	*evs = append(*evs, CloseEvent(n.Name))
}

// Equal reports deep equality of two trees.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Name != o.Name || n.Text != o.Text || len(n.Children) != len(o.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Canonicalize normalizes the tree in place for comparison: adjacent text
// children merge into one node (XML cannot distinguish them) and empty
// text nodes disappear. It returns the receiver.
func (n *Node) Canonicalize() *Node {
	if n == nil {
		return nil
	}
	out := n.Children[:0]
	for _, c := range n.Children {
		if c.IsText() {
			if c.Text == "" {
				continue
			}
			if len(out) > 0 && out[len(out)-1].IsText() {
				out[len(out)-1] = &Node{Text: out[len(out)-1].Text + c.Text}
				continue
			}
			out = append(out, c)
			continue
		}
		out = append(out, c.Canonicalize())
	}
	n.Children = out
	return n
}

// Find returns all descendant elements (including n itself) with the given
// name, in document order.
func (n *Node) Find(name string) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Name == name {
			out = append(out, m)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// TextContent concatenates all text beneath the node.
func (n *Node) TextContent() string {
	var b strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsText() {
			b.WriteString(m.Text)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}

// Stats summarizes a document's shape; workloads use it to report the
// parameters of generated documents and tests use it as an oracle.
type Stats struct {
	Elements     int
	Attributes   int
	TextNodes    int
	TextBytes    int
	MaxDepth     int
	DistinctTags int
	TagCounts    map[string]int
}

// CollectStats computes Stats from an event stream.
func CollectStats(evs []Event) Stats {
	s := Stats{TagCounts: make(map[string]int)}
	depth := 0
	for _, ev := range evs {
		switch ev.Kind {
		case Open:
			depth++
			if depth > s.MaxDepth {
				s.MaxDepth = depth
			}
			if ev.IsAttribute() {
				s.Attributes++
			} else {
				s.Elements++
			}
			s.TagCounts[ev.Name]++
		case Value:
			s.TextNodes++
			s.TextBytes += len(ev.Text)
		case Close:
			depth--
		}
	}
	s.DistinctTags = len(s.TagCounts)
	return s
}
