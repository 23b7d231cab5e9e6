package apdu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/soe"
	"repro/internal/wire"
	"repro/internal/xmlstream"
)

// Channel abstracts the transport carrying APDUs to a card: in-process
// (the Applet itself), or any reader/writer pair in a deployment.
type Channel interface {
	Exchange(Command) (Response, error)
}

// Applet implements Channel directly (in-process card).
func (a *Applet) Exchange(c Command) (Response, error) {
	// Round-trip through the wire encoding to exercise framing exactly as
	// a reader device would.
	raw, err := c.Marshal()
	if err != nil {
		return Response{}, err
	}
	cmd, err := UnmarshalCommand(raw)
	if err != nil {
		return Response{}, err
	}
	resp := a.Process(cmd)
	return UnmarshalResponse(resp.Marshal())
}

var _ Channel = (*Applet)(nil)

// Terminal drives the full card dialogue over APDUs. It is the
// protocol-faithful counterpart of proxy.Terminal: same store, same
// result assembly, but every byte crosses the 255-byte APDU boundary.
type Terminal struct {
	Store   dsp.Store
	Channel Channel
}

// ProvisionKey installs a document key over the channel.
func (t *Terminal) ProvisionKey(docID string, key []byte) error {
	data := wire.AppendString(nil, docID)
	data = append(data, key...)
	return t.simple(Command{CLA: AppletCLA, INS: INSPutKey, Data: data})
}

// InstallRules fetches the sealed rule set from the store and installs it
// chunk by chunk.
func (t *Terminal) InstallRules(subject, docID string) error {
	sealed, err := t.Store.RuleSet(docID, subject)
	if err != nil {
		return err
	}
	first := wire.AppendString(nil, docID)
	first = wire.AppendString(first, subject)
	chunks := chunkPayload(first, sealed)
	for i, chunk := range chunks {
		p1 := byte(0)
		if i == len(chunks)-1 {
			p1 = 1
		}
		if err := t.simple(Command{CLA: AppletCLA, INS: INSPutRules, P1: p1, Data: chunk}); err != nil {
			return err
		}
	}
	return nil
}

// Query runs a pull request entirely over APDUs and returns the
// authorized result tree (nil when nothing is visible).
func (t *Terminal) Query(subject, docID, query string) (*xmlstream.Node, error) {
	begin := wire.AppendString(nil, docID)
	begin = wire.AppendString(begin, subject)
	begin = wire.AppendString(begin, query)
	begin = append(begin, 0) // flags
	if err := t.simple(Command{CLA: AppletCLA, INS: INSBegin, Data: begin}); err != nil {
		return nil, err
	}

	header, err := t.Store.Header(docID)
	if err != nil {
		return nil, err
	}
	hdrBytes, err := header.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if err := t.sendChunked(INSHeader, hdrBytes, nil); err != nil {
		return nil, err
	}

	col := proxy.NewCollector()
	rec := &recordStream{col: col}
	for {
		idx, err := t.need()
		if err != nil {
			return nil, err
		}
		if idx < 0 {
			break
		}
		blk, err := t.Store.ReadBlock(docID, idx)
		if err != nil {
			return nil, err
		}
		if err := t.sendChunked(INSData, blk, rec); err != nil {
			return nil, err
		}
	}
	if err := rec.flushCheck(); err != nil {
		return nil, err
	}
	if err := t.simple(Command{CLA: AppletCLA, INS: INSEnd}); err != nil {
		return nil, err
	}
	view, err := col.View()
	return view.Tree(), err
}

// recordStream reassembles records split across APDU response chunks.
type recordStream struct {
	col *proxy.Collector
	buf []byte
}

func (r *recordStream) add(chunk []byte) error {
	r.buf = append(r.buf, chunk...)
	n, err := soe.DecodeRecordsPartial(r.buf, r.col)
	if err != nil {
		return err
	}
	r.buf = r.buf[n:]
	return nil
}

// flushCheck verifies no partial record is left dangling at end of
// session.
func (r *recordStream) flushCheck() error {
	if len(r.buf) != 0 {
		return fmt.Errorf("apdu: %d bytes of an incomplete record at end of session", len(r.buf))
	}
	return nil
}

// need asks the card for the next wanted block.
func (t *Terminal) need() (int, error) {
	resp, err := t.Channel.Exchange(Command{CLA: AppletCLA, INS: INSGetNeed})
	if err != nil {
		return 0, err
	}
	if !resp.OK() {
		return 0, fmt.Errorf("apdu: GET_NEED failed with SW %04X", resp.SW)
	}
	if len(resp.Data) != 4 {
		return 0, fmt.Errorf("apdu: GET_NEED returned %d bytes", len(resp.Data))
	}
	v := binary.BigEndian.Uint32(resp.Data)
	if v == 0xFFFFFFFF {
		return -1, nil
	}
	return int(v), nil
}

// sendChunked transmits a payload in MaxData chunks, draining output
// records into the record stream (when given) as responses arrive.
func (t *Terminal) sendChunked(ins byte, payload []byte, rec *recordStream) error {
	chunks := chunkPayload(nil, payload)
	for i, chunk := range chunks {
		p1 := byte(0)
		if i == len(chunks)-1 {
			p1 = 1
		}
		resp, err := t.Channel.Exchange(Command{CLA: AppletCLA, INS: ins, P1: p1, Data: chunk})
		if err != nil {
			return err
		}
		if !resp.OK() {
			return fmt.Errorf("apdu: INS %02X failed with SW %04X", ins, resp.SW)
		}
		if rec != nil {
			if err := t.collect(resp, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// collect feeds response bytes into the record stream and keeps draining
// while the card signals remaining output.
func (t *Terminal) collect(resp Response, rec *recordStream) error {
	for {
		if len(resp.Data) > 0 {
			if err := rec.add(resp.Data); err != nil {
				return err
			}
		}
		if resp.SW&0xFF00 != SWBytesRemain {
			return nil
		}
		var err error
		resp, err = t.Channel.Exchange(Command{CLA: AppletCLA, INS: INSGetOutput})
		if err != nil {
			return err
		}
		if !resp.OK() {
			return fmt.Errorf("apdu: GET_OUTPUT failed with SW %04X", resp.SW)
		}
	}
}

func (t *Terminal) simple(c Command) error {
	resp, err := t.Channel.Exchange(c)
	if err != nil {
		return err
	}
	if !resp.OK() {
		return fmt.Errorf("apdu: INS %02X failed with SW %04X", c.INS, resp.SW)
	}
	return nil
}

// chunkPayload splits first||payload into MaxData-sized chunks (at least
// one, possibly empty).
func chunkPayload(first, payload []byte) [][]byte {
	all := append(first, payload...)
	if len(all) == 0 {
		return [][]byte{nil}
	}
	var chunks [][]byte
	for len(all) > 0 {
		n := len(all)
		if n > MaxData {
			n = MaxData
		}
		chunks = append(chunks, all[:n])
		all = all[n:]
	}
	return chunks
}
