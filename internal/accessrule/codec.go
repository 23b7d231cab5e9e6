package accessrule

import (
	"encoding/binary"
	"fmt"

	"repro/internal/xpath"
)

// codecVersion identifies the rule-set wire format.
const codecVersion = 1

// MarshalBinary encodes the rule set for encrypted storage on the DSP.
// Objects are stored in their textual XPath form: the SOE reparses them at
// session start, which keeps the format transparent and versionable.
func (rs *RuleSet) MarshalBinary() ([]byte, error) {
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	var b []byte
	b = binary.AppendUvarint(b, codecVersion)
	b = appendString(b, rs.Subject)
	b = appendString(b, rs.DocID)
	b = binary.AppendUvarint(b, uint64(rs.Version))
	b = append(b, byte(int8(rs.DefaultSign)))
	b = binary.AppendUvarint(b, uint64(len(rs.Rules)))
	for _, r := range rs.Rules {
		b = appendString(b, r.ID)
		b = append(b, byte(int8(r.Sign)))
		b = appendString(b, r.Object.String())
	}
	return b, nil
}

// UnmarshalRuleSet decodes a rule set produced by MarshalBinary.
func UnmarshalRuleSet(data []byte) (*RuleSet, error) {
	d := &decoder{data: data}
	v := d.uvarint()
	if v != codecVersion {
		return nil, fmt.Errorf("accessrule: unsupported rule-set format version %d", v)
	}
	rs := &RuleSet{}
	rs.Subject = d.string()
	rs.DocID = d.string()
	rs.Version = uint32(d.uvarint())
	rs.DefaultSign = Sign(int8(d.byte()))
	n := d.uvarint()
	if d.err == nil && n > 1<<20 {
		return nil, fmt.Errorf("accessrule: implausible rule count %d", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		var r Rule
		r.ID = d.string()
		r.Sign = Sign(int8(d.byte()))
		obj := d.string()
		if d.err != nil {
			break
		}
		p, err := xpath.Parse(obj)
		if err != nil {
			return nil, fmt.Errorf("accessrule: rule %d: %w", i, err)
		}
		r.Object = p
		rs.Rules = append(rs.Rules, r)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("accessrule: %d trailing bytes after rule set", len(data)-d.pos)
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return rs, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("accessrule: truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.err = fmt.Errorf("accessrule: truncated byte at offset %d", d.pos)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) string() string {
	l := d.uvarint()
	if d.err != nil {
		return ""
	}
	if l > uint64(len(d.data)-d.pos) {
		d.err = fmt.Errorf("accessrule: truncated string at offset %d", d.pos)
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(l)])
	d.pos += int(l)
	return s
}
