package soe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/docenc"
	"repro/internal/mem"
	"repro/internal/tagdict"
	"repro/internal/workload"
)

// decoded is one item as a decoding reports it, the chunks of a streamed
// value folded into one (where a value is cut depends on how much the
// source has buffered, which is the very thing the two sides differ in).
type decoded struct {
	kind docenc.ItemKind
	code tagdict.Code
	text string
	size int
	meta string // content size and tag set of an indexed open
}

// decodeAll runs a decoder to the end of its payload or its first error.
// choices decides, one bit per opportunity, whether an indexed element or
// a streamed value is skipped; needMore is called when the source runs
// dry mid-item (nil for a source that holds everything).
func decodeAll(dec *docenc.Decoder, choices []byte, mark, compact func(), needMore func() error) ([]decoded, error) {
	var items []decoded
	choice := 0
	skip := func() bool {
		if len(choices) == 0 {
			return false
		}
		b := choices[(choice/8)%len(choices)] >> (choice % 8) & 1
		choice++
		return b == 1
	}
	for {
		mark()
		it, err := dec.Next()
		if err == docenc.ErrNeedMore && needMore != nil {
			if err := needMore(); err != nil {
				return items, err
			}
			continue
		}
		if err != nil {
			return items, err
		}
		switch it.Kind {
		case docenc.ItemEOF:
			return items, nil
		case docenc.ItemValueChunk:
			last := &items[len(items)-1]
			last.text += string(it.Text)
		default:
			d := decoded{kind: it.Kind, code: it.Code, text: string(it.Text), size: it.Size}
			if it.Meta != nil {
				d.meta = fmt.Sprint(it.Meta.ContentSize, it.Meta.Tags)
			}
			items = append(items, d)
		}
		switch {
		case it.Kind == docenc.ItemOpen && it.Meta != nil && skip():
			if err := dec.SkipContent(it.Meta); err != nil {
				return items, err
			}
		case it.Kind == docenc.ItemValueStart && skip():
			if err := dec.SkipValue(); err != nil {
				return items, err
			}
		}
		compact()
	}
}

// FuzzDecoderChunked: whatever the payload bytes, the block size and the
// skips taken, decoding block by block through the card's input window
// — views handed out of a buffer that is fed, rolled back and compacted
// underneath them — yields the items, and the failure or not, of decoding
// the whole payload from one slice. Nothing panics.
func FuzzDecoderChunked(f *testing.F) {
	folder, _, err := docenc.EncodePayload(
		workload.MedicalFolder(workload.MedicalConfig{Seed: 2, Patients: 3, VisitsPerPatient: 2}),
		docenc.EncodeOptions{DocID: "fuzz", MinSkipBytes: 24})
	if err != nil {
		f.Fatal(err)
	}
	stream, _, err := docenc.EncodePayload(
		workload.MediaStream(workload.StreamConfig{Seed: 2, Segments: 3, PayloadBytes: 300}),
		docenc.EncodeOptions{DocID: "fuzz", MinSkipBytes: 24})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(folder, uint16(64), []byte{})
	f.Add(folder, uint16(7), []byte{0xA5, 0x0F})
	f.Add(stream, uint16(100), []byte{0x55})
	f.Add(stream, uint16(1), []byte{0xFF})
	// Lengths that wrap negative as an int, and one past the payload.
	dict := []byte{1, 1, 'a'}
	for _, l := range []uint64{1 << 63, 1<<64 - 1, 3} {
		f.Add(bytes.Join([][]byte{dict, {0x02, 0, 0x04}, binary.AppendUvarint(nil, l), []byte("xy")}, nil), uint16(4), []byte{})
		f.Add(bytes.Join([][]byte{dict, {0x01, 0, 0x00}, binary.AppendUvarint(nil, l), {0x03}}, nil), uint16(4), []byte{1})
	}

	f.Fuzz(func(t *testing.T, payload []byte, blockPlain uint16, choices []byte) {
		dict, dictLen, err := tagdict.UnmarshalBinary(payload)
		if err != nil {
			return
		}
		nop := func() {}
		whole := docenc.NewBytesSource(payload)
		if err := whole.Skip(dictLen); err != nil {
			t.Fatal(err)
		}
		want, wantErr := decodeAll(docenc.NewDecoder(whole, dict), choices, nop, nop, nil)

		// The card's side: blocks of blockPlain bytes, fed on demand.
		header := docenc.Header{BlockPlain: uint32(blockPlain%512) + 1, PayloadLen: uint64(len(payload))}
		bp := int(header.BlockPlain)
		var src blockSource
		src.reset(&header, mem.Nop{})
		feed := func() error {
			idx := src.wantOffset() / bp
			if idx*bp >= len(payload) {
				return fmt.Errorf("source wants block %d of a %d-byte payload", idx, len(payload))
			}
			return src.feed(idx, payload[idx*bp:min((idx+1)*bp, len(payload))])
		}
		for src.windowEnd() < dictLen {
			if err := feed(); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.consume(dictLen); err != nil {
			t.Fatal(err)
		}
		compact := func() {
			if err := src.compact(); err != nil {
				t.Fatal(err)
			}
		}
		got, gotErr := decodeAll(docenc.NewDecoder(&src, dict), choices, src.mark, compact, func() error {
			src.rollback()
			return feed()
		})

		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("block by block: %v; whole: %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("block by block decoded %d items, whole %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("item %d: block by block %+v, whole %+v", i, got[i], want[i])
			}
		}
	})
}
