package xmlstream

import (
	"fmt"
	"io"
	"strings"
)

// ParserOptions tunes the pull parser.
type ParserOptions struct {
	// KeepWhitespace keeps text nodes made only of whitespace. The default
	// (false) drops them, which is what every workload in the paper wants:
	// indentation between tags is not data.
	KeepWhitespace bool
}

// Parser is a small, non-validating pull parser producing the paper's
// open/value/close event stream from an XML byte slice. It understands
// elements, attributes (reported as '@' pseudo-elements), character data,
// CDATA sections, comments, processing instructions, a DOCTYPE prologue,
// and the five predefined entities plus numeric character references.
type Parser struct {
	src  []byte
	pos  int
	opts ParserOptions

	// queue holds events synthesized ahead of time (attribute triples and
	// self-closing tag closes).
	queue []Event
	// stack of open element names, for well-formedness checking.
	stack []string
	// sawRoot records that a root element was encountered (to reject
	// forests with more than one root).
	sawRoot bool
	done    bool
}

// NewParserOptions returns a Parser over src with the given options.
func NewParserOptions(src []byte, opts ParserOptions) *Parser {
	return &Parser{src: src, opts: opts}
}

// Next returns the next event, or io.EOF after the last close of the root
// element. A malformed document yields a descriptive error.
func (p *Parser) Next() (Event, error) {
	for {
		if len(p.queue) > 0 {
			ev := p.queue[0]
			p.queue = p.queue[1:]
			return ev, nil
		}
		if p.done {
			return Event{}, io.EOF
		}
		ev, ok, err := p.step()
		if err != nil {
			return Event{}, err
		}
		if ok {
			return ev, nil
		}
	}
}

// step consumes one syntactic construct. It returns ok=false when the
// construct produced no event (comment, PI, skipped whitespace).
func (p *Parser) step() (Event, bool, error) {
	if p.pos >= len(p.src) {
		if len(p.stack) > 0 {
			return Event{}, false, fmt.Errorf("xmlstream: unexpected end of input, %d element(s) still open (innermost <%s>)",
				len(p.stack), p.stack[len(p.stack)-1])
		}
		p.done = true
		return Event{}, false, nil
	}
	c := p.src[p.pos]
	if c != '<' {
		// Character data run up to the next '<'.
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != '<' {
			p.pos++
		}
		text := string(p.src[start:p.pos])
		if len(p.stack) == 0 {
			if strings.TrimSpace(text) == "" {
				return Event{}, false, nil
			}
			return Event{}, false, fmt.Errorf("xmlstream: character data %q outside root element", truncate(text))
		}
		if !p.opts.KeepWhitespace && strings.TrimSpace(text) == "" {
			return Event{}, false, nil
		}
		decoded, err := decodeEntities(text)
		if err != nil {
			return Event{}, false, err
		}
		return ValueEvent(decoded), true, nil
	}

	// A markup construct.
	if p.pos+1 >= len(p.src) {
		return Event{}, false, fmt.Errorf("xmlstream: truncated markup at offset %d", p.pos)
	}
	switch p.src[p.pos+1] {
	case '?':
		return Event{}, false, p.skipUntil("?>")
	case '!':
		rest := p.src[p.pos:]
		switch {
		case hasPrefix(rest, "<!--"):
			return Event{}, false, p.skipUntil("-->")
		case hasPrefix(rest, "<![CDATA["):
			return p.readCDATA()
		case hasPrefix(rest, "<!DOCTYPE"):
			return Event{}, false, p.skipDoctype()
		default:
			return Event{}, false, fmt.Errorf("xmlstream: unsupported declaration at offset %d", p.pos)
		}
	case '/':
		return p.readCloseTag()
	default:
		return p.readOpenTag()
	}
}

func (p *Parser) readCDATA() (Event, bool, error) {
	p.pos += len("<![CDATA[")
	end := indexFrom(p.src, p.pos, "]]>")
	if end < 0 {
		return Event{}, false, fmt.Errorf("xmlstream: unterminated CDATA section")
	}
	text := string(p.src[p.pos:end])
	p.pos = end + len("]]>")
	if len(p.stack) == 0 {
		return Event{}, false, fmt.Errorf("xmlstream: CDATA outside root element")
	}
	if text == "" {
		return Event{}, false, nil
	}
	return ValueEvent(text), true, nil
}

func (p *Parser) readCloseTag() (Event, bool, error) {
	p.pos += 2 // "</"
	name, err := p.readName()
	if err != nil {
		return Event{}, false, err
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '>' {
		return Event{}, false, fmt.Errorf("xmlstream: malformed closing tag </%s", name)
	}
	p.pos++
	if len(p.stack) == 0 {
		return Event{}, false, fmt.Errorf("xmlstream: closing tag </%s> with no open element", name)
	}
	top := p.stack[len(p.stack)-1]
	if top != name {
		return Event{}, false, fmt.Errorf("xmlstream: closing tag </%s> does not match open <%s>", name, top)
	}
	p.stack = p.stack[:len(p.stack)-1]
	return CloseEvent(name), true, nil
}

func (p *Parser) readOpenTag() (Event, bool, error) {
	p.pos++ // '<'
	name, err := p.readName()
	if err != nil {
		return Event{}, false, err
	}
	if len(p.stack) == 0 && p.rootSeen() {
		return Event{}, false, fmt.Errorf("xmlstream: second root element <%s>", name)
	}

	// Attributes.
	var attrs []Event
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return Event{}, false, fmt.Errorf("xmlstream: unterminated tag <%s", name)
		}
		c := p.src[p.pos]
		if c == '>' || c == '/' {
			break
		}
		aname, err := p.readName()
		if err != nil {
			return Event{}, false, fmt.Errorf("xmlstream: in <%s>: %w", name, err)
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return Event{}, false, fmt.Errorf("xmlstream: attribute %s of <%s> lacks '='", aname, name)
		}
		p.pos++
		p.skipSpace()
		val, err := p.readQuoted()
		if err != nil {
			return Event{}, false, fmt.Errorf("xmlstream: attribute %s of <%s>: %w", aname, name, err)
		}
		attrs = append(attrs,
			OpenEvent("@"+aname),
			ValueEvent(val),
			CloseEvent("@"+aname))
	}

	selfClose := false
	if p.src[p.pos] == '/' {
		selfClose = true
		p.pos++
		if p.pos >= len(p.src) || p.src[p.pos] != '>' {
			return Event{}, false, fmt.Errorf("xmlstream: malformed self-closing tag <%s", name)
		}
	}
	p.pos++ // '>'

	p.queue = append(p.queue, attrs...)
	if selfClose {
		p.queue = append(p.queue, CloseEvent(name))
	} else {
		p.stack = append(p.stack, name)
	}
	p.sawRoot = true
	return OpenEvent(name), true, nil
}

func (p *Parser) rootSeen() bool { return p.sawRoot }

func (p *Parser) readName() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos], p.pos == start) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("xmlstream: expected name at offset %d", p.pos)
	}
	return string(p.src[start:p.pos]), nil
}

func (p *Parser) readQuoted() (string, error) {
	if p.pos >= len(p.src) {
		return "", fmt.Errorf("unterminated attribute value")
	}
	q := p.src[p.pos]
	if q != '"' && q != '\'' {
		return "", fmt.Errorf("attribute value must be quoted")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", fmt.Errorf("unterminated attribute value")
	}
	raw := string(p.src[start:p.pos])
	p.pos++
	return decodeEntities(raw)
}

func (p *Parser) skipSpace() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *Parser) skipUntil(end string) error {
	idx := indexFrom(p.src, p.pos, end)
	if idx < 0 {
		return fmt.Errorf("xmlstream: unterminated construct (expected %q)", end)
	}
	p.pos = idx + len(end)
	return nil
}

// skipDoctype skips a DOCTYPE declaration, including an internal subset in
// square brackets.
func (p *Parser) skipDoctype() error {
	depth := 0
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.pos++
				return nil
			}
		}
		p.pos++
	}
	return fmt.Errorf("xmlstream: unterminated DOCTYPE")
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case !first && (c >= '0' && c <= '9' || c == '-' || c == '.'):
		return true
	case c >= 0x80: // permit UTF-8 names wholesale
		return true
	}
	return false
}

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

func indexFrom(b []byte, from int, s string) int {
	idx := strings.Index(string(b[from:]), s)
	if idx < 0 {
		return -1
	}
	return from + idx
}

func truncate(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

// decodeEntities expands the predefined entities and numeric character
// references in s.
func decodeEntities(s string) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return "", fmt.Errorf("xmlstream: unterminated entity reference in %q", truncate(s))
		}
		ent := s[i+1 : i+semi]
		switch {
		case ent == "amp":
			b.WriteByte('&')
		case ent == "lt":
			b.WriteByte('<')
		case ent == "gt":
			b.WriteByte('>')
		case ent == "quot":
			b.WriteByte('"')
		case ent == "apos":
			b.WriteByte('\'')
		case len(ent) > 1 && ent[0] == '#':
			r, err := parseCharRef(ent[1:])
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
		default:
			return "", fmt.Errorf("xmlstream: unknown entity &%s;", ent)
		}
		i += semi + 1
	}
	return b.String(), nil
}

func parseCharRef(s string) (rune, error) {
	base := 10
	if len(s) > 0 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	var n int64
	for _, c := range s {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, fmt.Errorf("xmlstream: bad character reference &#%s;", s)
		}
		n = n*int64(base) + d
		if n > 0x10FFFF {
			return 0, fmt.Errorf("xmlstream: character reference out of range")
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("xmlstream: empty character reference")
	}
	return rune(n), nil
}

// Parse decodes src entirely into an event slice. It is the convenience
// entry point used by workloads and tests; streaming consumers should use
// the pull API.
func Parse(src []byte) ([]Event, error) {
	return ParseOptions(src, ParserOptions{})
}

// ParseOptions is Parse with explicit options.
func ParseOptions(src []byte, opts ParserOptions) ([]Event, error) {
	p := NewParserOptions(src, opts)
	var evs []Event
	for {
		ev, err := p.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
}
