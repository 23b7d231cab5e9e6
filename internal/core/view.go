package core

import (
	"repro/internal/tagdict"
	"repro/internal/xmlstream"
)

// View is an authorized result in its compact, immutable form: the kept
// nodes in document order (preorder) over one text slab. It is canonical
// — no empty text, no two adjacent text siblings — so rendering it and
// materializing it need no further normalization. A nil *View is the
// empty result (nothing visible).
type View struct {
	nodes []vnode
	text  []byte
	// names resolves the element codes that occur in nodes.
	names []string
}

// vnode is one view node: an element owning nodes[i+1:end], or a text
// node owning text[off:off+n].
type vnode struct {
	parent, end int32
	off, n      int32
	code        tagdict.Code
	isText      bool
}

// AppendXML renders the view as XML appended to dst — byte for byte what
// xmlstream.Serialize(v.Tree().Events(), opts) returns, without building
// the tree, the events or an intermediate string. Leading '@' children
// fold back into attributes; a view that cannot be written as XML (an
// attribute after content, markup inside an attribute) is an error.
func (v *View) AppendXML(dst []byte, opts xmlstream.WriterOptions) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	enc := xmlstream.NewEncoder(opts, len(dst))
	var err error
	cur := int32(-1) // innermost open element
	for i := int32(0); ; i++ {
		for cur >= 0 && v.nodes[cur].end == i {
			name := v.names[v.nodes[cur].code]
			if isAttrName(name) {
				dst, err = enc.CloseAttr(dst)
			} else {
				dst, err = enc.Close(dst, name)
			}
			if err != nil {
				return dst, err
			}
			cur = v.nodes[cur].parent
		}
		if i == int32(len(v.nodes)) {
			return dst, enc.Err()
		}
		n := &v.nodes[i]
		if n.isText {
			dst, err = enc.Text(dst, v.text[n.off:n.off+n.n])
		} else if name := v.names[n.code]; isAttrName(name) {
			dst, err = enc.OpenAttr(dst, name)
			cur = i
		} else {
			dst, err = enc.Open(dst, name)
			cur = i
		}
		if err != nil {
			return dst, err
		}
	}
}

// XML renders the view as a string ("" for the empty view).
func (v *View) XML(opts xmlstream.WriterOptions) (string, error) {
	if v == nil {
		return "", nil
	}
	// Sized so that a typical view renders without regrowing the buffer.
	b, err := v.AppendXML(make([]byte, 0, len(v.text)+24*len(v.nodes)), opts)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Tree materializes the view as a DOM, for callers that navigate the
// result instead of shipping it (nil for the empty view). Nodes, child
// lists and text each come from one allocation.
func (v *View) Tree() *xmlstream.Node {
	if v == nil {
		return nil
	}
	nodes := make([]xmlstream.Node, len(v.nodes))
	// Child lists are carved out of one slab: count each element's
	// children, give it that many slots, then fill them in order.
	counts := make([]int32, len(v.nodes))
	for _, n := range v.nodes[1:] {
		counts[n.parent]++
	}
	slab := make([]*xmlstream.Node, len(v.nodes)-1)
	next := int32(0)
	for i, c := range counts {
		if c > 0 {
			// Full slice expression: an append by the caller must
			// reallocate, not run into the next element's slots.
			nodes[i].Children = slab[next : next : next+c]
			next += c
		}
	}
	text := string(v.text)
	for i := range v.nodes {
		n := &v.nodes[i]
		if n.isText {
			nodes[i].Text = text[n.off : n.off+n.n]
		} else {
			nodes[i].Name = v.names[n.code]
		}
		if n.parent >= 0 {
			p := &nodes[n.parent]
			p.Children = append(p.Children, &nodes[i])
		}
	}
	return &nodes[0]
}
