package accessrule

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
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
	b = wire.AppendString(b, rs.Subject)
	b = wire.AppendString(b, rs.DocID)
	b = binary.AppendUvarint(b, uint64(rs.Version))
	b = append(b, byte(int8(rs.DefaultSign)))
	b = binary.AppendUvarint(b, uint64(len(rs.Rules)))
	for _, r := range rs.Rules {
		b = wire.AppendString(b, r.ID)
		b = append(b, byte(int8(r.Sign)))
		b = wire.AppendString(b, r.Object.String())
	}
	return b, nil
}

// UnmarshalRuleSet decodes a rule set produced by MarshalBinary.
func UnmarshalRuleSet(data []byte) (*RuleSet, error) {
	r := wire.NewReader(data)
	if v := r.Uvarint(); v != codecVersion {
		return nil, fmt.Errorf("accessrule: unsupported rule-set format version %d", v)
	}
	rs := &RuleSet{}
	rs.Subject = r.String()
	rs.DocID = r.String()
	rs.Version = uint32(r.Uvarint())
	rs.DefaultSign = Sign(int8(r.Byte()))
	// A rule is at least its ID's length, its sign and its object's length.
	n := r.ReadUvarintBounded(3, 1<<20)
	for i := 0; i < n && r.Err() == nil; i++ {
		var rule Rule
		rule.ID = r.String()
		rule.Sign = Sign(int8(r.Byte()))
		obj := r.String()
		if r.Err() != nil {
			break
		}
		p, err := xpath.Parse(obj)
		if err != nil {
			return nil, fmt.Errorf("accessrule: rule %d: %w", i, err)
		}
		rule.Object = p
		rs.Rules = append(rs.Rules, rule)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if !r.Done() {
		return nil, fmt.Errorf("accessrule: %d trailing bytes after rule set", len(r.Peek()))
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return rs, nil
}
