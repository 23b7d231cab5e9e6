package xmlstream

import "fmt"

// Encoder is the one statement of the serialized format: an append-style
// state machine taking open / attribute / text / close calls and adding
// escaped, optionally indented XML to a caller-owned byte slice. Writer
// drives it from an event stream; the authorized-view walk in
// internal/core drives it straight from its arena into a response frame.
//
// The Encoder trusts its caller to balance element opens and closes (it
// counts depth but keeps no name stack); it rejects what would produce
// malformed markup regardless of balance: attributes outside an opening
// tag, markup inside an attribute value, text outside the root.
type Encoder struct {
	indent string
	// start is the length dst had when encoding began: the first tag is
	// not preceded by a newline.
	start int
	depth int
	// openTag: the innermost element's "<name" is written but its '>'
	// (or "/>") is deferred, because attributes may still arrive.
	openTag bool
	// inAttr: an attribute's opening quote is written, its value is
	// being appended.
	inAttr bool
	// lastText: the previous output was character data, so a closing tag
	// follows it directly instead of going on a fresh line.
	lastText bool
}

// NewEncoder returns an Encoder that will append to a slice currently
// holding start bytes (they are left alone and never count as output).
func NewEncoder(opts WriterOptions, start int) Encoder {
	return Encoder{indent: opts.Indent, start: start}
}

// Open appends an element's opening tag (without its closing bracket).
func (e *Encoder) Open(dst []byte, name string) ([]byte, error) {
	if e.inAttr {
		return dst, fmt.Errorf("xmlstream: element <%s> inside an attribute value", name)
	}
	dst = e.flushOpen(dst)
	dst = e.newline(dst)
	dst = append(dst, '<')
	dst = append(dst, name...)
	e.openTag = true
	e.depth++
	e.lastText = false
	return dst, nil
}

// OpenAttr begins an attribute of the element whose opening tag is still
// pending. name carries the '@' prefix of the event model.
func (e *Encoder) OpenAttr(dst []byte, name string) ([]byte, error) {
	if e.inAttr {
		return dst, fmt.Errorf("xmlstream: nested attribute %s", name)
	}
	if !e.openTag {
		return dst, fmt.Errorf("xmlstream: attribute %s outside an opening tag", name)
	}
	dst = append(dst, ' ')
	dst = append(dst, name[1:]...)
	dst = append(dst, '=', '"')
	e.inAttr = true
	return dst, nil
}

// CloseAttr ends the attribute begun by OpenAttr.
func (e *Encoder) CloseAttr(dst []byte) ([]byte, error) {
	if !e.inAttr {
		return dst, fmt.Errorf("xmlstream: attribute close with no attribute open")
	}
	e.inAttr = false
	return append(dst, '"'), nil
}

// Text appends character data: an attribute's value inside
// OpenAttr/CloseAttr, element content otherwise.
func (e *Encoder) Text(dst []byte, text []byte) ([]byte, error) {
	if e.depth == 0 && !e.inAttr {
		return dst, outsideRoot(string(text))
	}
	return appendEscaped(e.beginText(dst), text, e.inAttr), nil
}

// TextString is Text for string data.
func (e *Encoder) TextString(dst []byte, text string) ([]byte, error) {
	if e.depth == 0 && !e.inAttr {
		return dst, outsideRoot(text)
	}
	return appendEscaped(e.beginText(dst), text, e.inAttr), nil
}

// beginText readies dst for character data. It is not generic over the
// text's type, as appendEscaped is: an Encoder passed to a generic
// function escapes, and then every caller's Encoder is a heap allocation.
func (e *Encoder) beginText(dst []byte) []byte {
	if e.inAttr {
		return dst
	}
	e.lastText = true
	return e.flushOpen(dst)
}

func outsideRoot(text string) error {
	return fmt.Errorf("xmlstream: value %q outside root element", truncate(text))
}

// Close appends the closing tag of the innermost open element, or turns
// its still-pending opening tag into an empty-element tag.
func (e *Encoder) Close(dst []byte, name string) ([]byte, error) {
	if e.inAttr {
		return dst, fmt.Errorf("xmlstream: close of </%s> inside an attribute value", name)
	}
	if e.depth == 0 {
		return dst, fmt.Errorf("xmlstream: close of </%s> with no open element", name)
	}
	e.depth--
	if e.openTag {
		e.openTag = false
		e.lastText = false
		return append(dst, '/', '>'), nil
	}
	// The element had content (its tag was flushed by a child or text);
	// the closing tag goes on its own line unless text precedes it.
	if !e.lastText {
		dst = e.newline(dst)
	}
	e.lastText = false
	dst = append(dst, '<', '/')
	dst = append(dst, name...)
	return append(dst, '>'), nil
}

// Err reports whether the output ended with everything terminated.
func (e *Encoder) Err() error {
	if e.depth != 0 || e.inAttr {
		return fmt.Errorf("xmlstream: serializer finished with unterminated markup (depth %d)", e.depth)
	}
	return nil
}

func (e *Encoder) flushOpen(dst []byte) []byte {
	if e.openTag {
		e.openTag = false
		dst = append(dst, '>')
	}
	return dst
}

// newline starts a fresh indented line, except at the very beginning of
// the output and in compact mode.
func (e *Encoder) newline(dst []byte) []byte {
	if e.indent == "" || len(dst) == e.start {
		return dst
	}
	dst = append(dst, '\n')
	for i := 0; i < e.depth; i++ {
		dst = append(dst, e.indent...)
	}
	return dst
}

// appendEscaped appends s with the markup characters replaced by entity
// references; quot additionally escapes the double quote (attribute
// values). Runs without special characters are copied in one append.
// The scan tests eight bytes a step and looks at single bytes only in a
// word that holds a special one.
func appendEscaped[T string | []byte](dst []byte, s T, quot bool) []byte {
	last := 0
	for i := 0; i < len(s); {
		for i+8 <= len(s) && !needsEscape(word(s[i:i+8]), quot) {
			i += 8
		}
		for end := min(i+8, len(s)); i < end; i++ {
			var esc string
			switch s[i] {
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '"':
				if !quot {
					continue
				}
				esc = "&quot;"
			default:
				continue
			}
			dst = append(dst, s[last:i]...)
			dst = append(dst, esc...)
			last = i + 1
		}
	}
	return append(dst, s[last:]...)
}

// word loads the eight bytes of b as a little-endian word.
func word[T string | []byte](b T) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// ones repeats a byte across a word: b * ones.
const ones = 0x0101010101010101

// needsEscape reports whether a byte of w is one appendEscaped replaces.
// XORing w with a special byte repeated zeroes exactly the bytes equal
// to it; (x - ones) &^ x has some byte's top bit set exactly when x has
// a zero byte, since a borrow, the only way a nonzero byte can set its
// top bit there, starts at a zero byte. The test has no false positives.
func needsEscape(w uint64, quot bool) bool {
	zeroes := func(x uint64) uint64 { return (x - ones) &^ x }
	t := zeroes(w^('&'*ones)) | zeroes(w^('<'*ones)) | zeroes(w^('>'*ones))
	if quot {
		t |= zeroes(w ^ ('"' * ones))
	}
	return t&(0x80*ones) != 0
}
