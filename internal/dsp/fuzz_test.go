package dsp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/docenc"
)

// fuzzContainer is a small synthetic version of the fuzzed document —
// four 16-byte blocks, a MAC naming the version — so that mutated seeds
// stay short and the fuzzer's minimizer quick.
func fuzzContainer(version uint32) *docenc.Container {
	c := &docenc.Container{Header: docenc.Header{DocID: "doc", Version: version, BlockPlain: 8, PayloadLen: 32}}
	binary.BigEndian.PutUint32(c.Header.MAC[:], version)
	for i := 0; i < 4; i++ {
		c.Blocks = append(c.Blocks, bytes.Repeat([]byte{byte(version)}, 16))
	}
	return c
}

// commitSeeds are delta encodings the fuzz targets start from: a real
// one-frame commit, a creation, one with an empty run list, and hostile
// shapes — cut short, a run count the bytes cannot hold, a block count
// the bytes cannot hold, and a header claiming a huge geometry.
func commitSeeds() [][]byte {
	base, next := fuzzContainer(1), fuzzContainer(2)
	d := &docenc.DeltaUpdate{Header: next.Header, BaseVersion: 1, BaseMAC: base.Header.MAC,
		Runs: []docenc.PatchRun{{Start: 0, Blocks: next.Blocks[:1]}, {Start: 2, Blocks: next.Blocks[2:]}}}
	full := appendDelta(nil, d)
	create := appendDelta(nil, &docenc.DeltaUpdate{Header: base.Header,
		Runs: []docenc.PatchRun{{Start: 0, Blocks: base.Blocks}}})
	empty := appendDelta(nil, &docenc.DeltaUpdate{Header: d.Header, BaseVersion: 1, BaseMAC: base.Header.MAC})
	hb, _ := d.Header.MarshalBinary()
	prefix := append(binary.AppendUvarint(nil, 1), base.Header.MAC[:]...)
	prefix = append(prefix, hb...)
	runs := binary.AppendUvarint(append([]byte(nil), prefix...), 1<<40)
	blocks := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(append([]byte(nil), prefix...), 1), 0), 1<<20)
	huge := d.Header
	huge.BlockPlain, huge.PayloadLen = 1, 1<<62
	return [][]byte{full, create, empty, full[:len(full)/2], runs, blocks,
		appendDelta(nil, &docenc.DeltaUpdate{Header: huge, BaseVersion: 1, BaseMAC: base.Header.MAC})}
}

// FuzzCommitFrame feeds arbitrary bytes to the server as the body of a
// one-frame commit: decoding never panics, a body the decoder accepts
// re-encodes to exactly its bytes, and the whole dispatch — decode, then
// the commit against a store holding a base version — never panics
// either.
func FuzzCommitFrame(f *testing.F) {
	for _, seed := range commitSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if d, err := (&wireReader{data: body}).delta(); err == nil {
			if re := appendDelta(nil, d); !bytes.Equal(re, body) {
				t.Fatalf("accepted delta re-encodes to other bytes:\n in  %x\n out %x", body, re)
			}
		}
		store := NewMemStoreShards(1)
		_ = store.PutDocument(fuzzContainer(1))
		NewServer(store).dispatch(append([]byte{opCommitDelta}, body...)).release()
	})
}

// FuzzCommitRecord feeds arbitrary bytes to recovery as one log record
// of any kind: replay never panics, and a commit record the decoder
// accepts re-encodes to exactly its bytes.
func FuzzCommitRecord(f *testing.F) {
	for _, seed := range commitSeeds() {
		f.Add(append([]byte{recCommitDelta}, seed...))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 0 && body[0] == recCommitDelta {
			if d, err := (&wireReader{data: body, pos: 1}).delta(); err == nil {
				if re := appendDelta([]byte{recCommitDelta}, d); !bytes.Equal(re, body) {
					t.Fatalf("accepted record re-encodes to other bytes:\n in  %x\n out %x", body, re)
				}
			}
		}
		s := &FileStore{mem: NewMemStoreShards(1)}
		_ = s.mem.PutDocument(fuzzContainer(1))
		var rec segRecovery
		_ = s.applyRecord(body, &rec)
	})
}
