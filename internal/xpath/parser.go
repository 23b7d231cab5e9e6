package xpath

import (
	"fmt"
	"strings"
)

// Parse parses an absolute XP{[],*,//} expression such as
//
//	/folder/patient[@id = "12"]//diagnosis
//	//b[c]/d
//
// The expression must start with '/' or '//'.
func Parse(expr string) (*Path, error) {
	p := &parser{src: expr}
	p.skipSpace()
	if !p.peekIs('/') {
		return nil, p.errorf("absolute path must start with '/' or '//'")
	}
	path, err := p.parsePath(true)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errorf("trailing input %q", p.rest())
	}
	if len(path.Steps) == 0 {
		return nil, p.errorf("empty path")
	}
	return path, nil
}

// MustParse is Parse that panics on error; for tests and fixed tables.
func MustParse(expr string) *Path {
	p, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	src string
	pos int
}

func (p *parser) parsePath(absolute bool) (*Path, error) {
	path := &Path{}
	first := true
	for {
		p.skipSpace()
		axis := Child
		switch {
		case p.consume("//"):
			axis = Descendant
		case p.peekIs('/'):
			if first && !absolute {
				return nil, p.errorf("leading '/' not allowed in a relative path")
			}
			p.pos++
			axis = Child
		default:
			if first && !absolute {
				// relative path: implicit child axis for the first step
			} else {
				return path, nil
			}
		}
		if first && absolute && axis == Child && p.eof() {
			return nil, p.errorf("path consists of '/' only")
		}
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		step.Axis = axis
		path.Steps = append(path.Steps, step)
		first = false
		p.skipSpace()
		if p.eof() || !p.peekIs('/') {
			return path, nil
		}
	}
}

func (p *parser) parseStep() (Step, error) {
	p.skipSpace()
	var step Step
	switch {
	case p.consume("@*"):
		step.Name = "@*"
	case p.consume("@"):
		name, err := p.parseName()
		if err != nil {
			return step, err
		}
		step.Name = "@" + name
	case p.consume("*"):
		step.Name = "*"
	default:
		name, err := p.parseName()
		if err != nil {
			return step, err
		}
		step.Name = name
	}
	for {
		p.skipSpace()
		if !p.consume("[") {
			return step, nil
		}
		pred, err := p.parsePred()
		if err != nil {
			return step, err
		}
		p.skipSpace()
		if !p.consume("]") {
			return step, p.errorf("expected ']'")
		}
		step.Preds = append(step.Preds, pred)
	}
}

func (p *parser) parsePred() (Pred, error) {
	p.skipSpace()
	var pred Pred
	if p.consume(".") {
		pred.Path = nil // context node
	} else {
		path, err := p.parsePath(false)
		if err != nil {
			return pred, err
		}
		if len(path.Steps) == 0 {
			return pred, p.errorf("empty predicate path")
		}
		pred.Path = path
	}
	p.skipSpace()
	switch {
	case p.consume("!="):
		pred.Cmp = Neq
	case p.consume("="):
		pred.Cmp = Eq
	default:
		if pred.Path == nil {
			return pred, p.errorf("'.' predicate requires a comparison")
		}
		pred.Cmp = Exists
		return pred, nil
	}
	p.skipSpace()
	lit, err := p.parseLiteral()
	if err != nil {
		return pred, err
	}
	pred.Value = lit
	return pred, nil
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && isNameChar(p.src[p.pos], p.pos == start) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errorf("expected a name")
	}
	return p.src[start:p.pos], nil
}

func (p *parser) parseLiteral() (string, error) {
	if p.eof() {
		return "", p.errorf("expected a string literal")
	}
	q := p.src[p.pos]
	if q != '"' && q != '\'' {
		return "", p.errorf("string literal must be quoted")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errorf("unterminated string literal")
	}
	lit := p.src[start:p.pos]
	p.pos++
	return lit, nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) consume(tok string) bool {
	if strings.HasPrefix(p.src[p.pos:], tok) {
		// Avoid treating "//" prefix as "/": the caller must test longer
		// tokens first, which parsePath does.
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) peekIs(c byte) bool {
	return p.pos < len(p.src) && p.src[p.pos] == c
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) rest() string {
	r := p.src[p.pos:]
	if len(r) > 16 {
		r = r[:16] + "..."
	}
	return r
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("xpath: %s at offset %d in %q", fmt.Sprintf(format, args...), p.pos, p.src)
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case !first && (c >= '0' && c <= '9' || c == '-' || c == '.'):
		return true
	case c >= 0x80:
		return true
	}
	return false
}
