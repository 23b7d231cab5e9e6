package xmlstream

import "fmt"

// WriterOptions tunes the serializer.
type WriterOptions struct {
	// Indent, when non-empty, pretty-prints with one Indent per depth
	// level. Empty produces compact one-line output.
	Indent string
}

// Writer serializes an event stream back into XML text. Leading '@'
// pseudo-element triples after an Open are folded back into attributes of
// that element, reversing the parser's convention. The format itself is
// the Encoder's; the Writer adds what an event stream needs on top: the
// name stack that checks every Close against its Open.
type Writer struct {
	enc Encoder
	buf []byte
	// open holds the names of the unterminated elements, innermost last,
	// and attr the attribute being written ("" if none).
	open []string
	attr string
}

// NewWriter returns a Writer with the given options.
func NewWriter(opts WriterOptions) *Writer {
	return &Writer{enc: NewEncoder(opts, 0)}
}

// WriteEvent appends one event to the output.
func (w *Writer) WriteEvent(ev Event) (err error) {
	switch ev.Kind {
	case Open:
		if ev.IsAttribute() {
			if w.buf, err = w.enc.OpenAttr(w.buf, ev.Name); err == nil {
				w.attr = ev.Name
			}
			return err
		}
		if w.buf, err = w.enc.Open(w.buf, ev.Name); err == nil {
			w.open = append(w.open, ev.Name)
		}
		return err
	case Value:
		w.buf, err = w.enc.TextString(w.buf, ev.Text)
		return err
	case Close:
		if ev.IsAttribute() {
			if w.attr != ev.Name {
				return fmt.Errorf("xmlstream: close of attribute %s does not match open %s", ev.Name, w.attr)
			}
			w.attr = ""
			w.buf, err = w.enc.CloseAttr(w.buf)
			return err
		}
		if n := len(w.open); n > 0 && w.open[n-1] != ev.Name {
			return fmt.Errorf("xmlstream: close </%s> does not match open <%s>", ev.Name, w.open[n-1])
		}
		if w.buf, err = w.enc.Close(w.buf, ev.Name); err == nil {
			w.open = w.open[:len(w.open)-1]
		}
		return err
	default:
		return fmt.Errorf("xmlstream: unknown event kind %d", ev.Kind)
	}
}

// String returns the XML accumulated so far. It is an error to call it
// with unterminated elements; the partial output is returned regardless.
func (w *Writer) String() string {
	return string(w.buf)
}

// Err reports whether the stream terminated cleanly.
func (w *Writer) Err() error {
	return w.enc.Err()
}

// Serialize renders an event slice as XML text.
func Serialize(evs []Event, opts WriterOptions) (string, error) {
	w := NewWriter(opts)
	for _, ev := range evs {
		if err := w.WriteEvent(ev); err != nil {
			return "", err
		}
	}
	if err := w.Err(); err != nil {
		return "", err
	}
	return w.String(), nil
}
