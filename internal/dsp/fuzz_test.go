package dsp

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/docenc"
	"repro/internal/wire"
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
		if d, err := readDelta(wire.NewReader(body)); err == nil {
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
			if d, err := readDelta(wire.NewReader(body[1:])); err == nil {
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

// checkpointImageSeeds are checkpoint images the image fuzz target
// starts from: a real one-document image with a rule set, the same
// image cut short, with a corrupted footer CRC, and with the retired
// v1 and v2 magics.
func checkpointImageSeeds(f *testing.F) [][]byte {
	dir := f.TempDir()
	s, err := NewFileStoreOptions(dir, FileStoreOptions{Shards: 1, NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.PutDocument(fuzzContainer(1)); err != nil {
		f.Fatal(err)
	}
	if err := s.PutRuleSet("doc", "alice", 1, []byte("sealed")); err != nil {
		f.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, segCkptName(0)))
	if err != nil {
		f.Fatal(err)
	}
	badCRC := append([]byte(nil), img...)
	badCRC[len(badCRC)-ckptFooterTailLen+4] ^= 0xff
	v1, v2 := append([]byte(nil), img...), append([]byte(nil), img...)
	v1[len(ckptMagic)-1], v2[len(ckptMagic)-1] = 1, 2
	return [][]byte{img, img[:len(img)/2], badCRC, v1, v2}
}

// FuzzCheckpointImage writes arbitrary bytes as the one checkpoint image
// of a one-segment store directory with a valid store.meta: opening it
// returns a store or an error, never a panic, and a store it returns
// serves every block it lists. The heap loader is also fed the image
// directly, so it is covered on platforms whose open maps images.
func FuzzCheckpointImage(f *testing.F) {
	for _, seed := range checkpointImageSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		dir := t.TempDir()
		if err := writeSegmentMeta(dir, 1, true); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segCkptName(0))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		heap := &FileStore{mem: NewMemStoreShards(1)}
		_ = heap.loadCheckpointFile(path)

		s, err := NewFileStoreOptions(dir, FileStoreOptions{NoSync: true, CheckpointBytes: -1})
		if err != nil {
			return
		}
		defer s.Close()
		ids, err := s.ListDocuments()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			h, err := s.Header(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ReadBlocks(id, 0, h.NumBlocks()); err != nil {
				t.Fatalf("listed document %q unreadable: %v", id, err)
			}
		}
	})
}

// FuzzServerDispatch feeds arbitrary bytes to dispatch as one request
// over a store holding one document: dispatch never panics, the reply
// carries a status byte and fits a frame, and it assembles and releases
// — dropping any pins — like a connection writer would.
func FuzzServerDispatch(f *testing.F) {
	for _, tc := range malformedRequests() {
		f.Add(tc.req)
	}
	for _, seed := range commitSeeds() {
		f.Add(append([]byte{opCommitDelta}, seed...))
	}
	f.Add(wire.AppendString([]byte{opHeader}, "doc"))
	f.Add(binary.AppendUvarint(wire.AppendString([]byte{3}, "doc"), 1)) // retired op 3: an unknown op
	f.Add(binary.AppendUvarint(binary.AppendUvarint(wire.AppendString([]byte{opReadBlocks}, "doc"), 1), 3))
	f.Add(wire.AppendBytes(wire.AppendString(wire.AppendString([]byte{opPutRuleSet}, "doc"), "alice"), []byte("sealed")))
	f.Add(wire.AppendString(wire.AppendString([]byte{opRuleSet}, "doc"), "alice"))
	f.Add([]byte{opList})
	f.Add([]byte{opStoreStats})
	f.Fuzz(func(t *testing.T, req []byte) {
		store := NewMemStoreShards(1)
		_ = store.PutDocument(fuzzContainer(1))
		resp := NewServer(store).dispatch(req)
		if len(resp.head) < 5 || resp.head[4] > wire.StatusErr {
			t.Fatalf("reply head %x has no status byte", resp.head)
		}
		if n := resp.size(); n > maxFrame {
			t.Fatalf("reply of %d bytes exceeds the frame limit", n)
		}
		if err := resp.writeTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		resp.release()
	})
}

// FuzzParseBlockRun feeds arbitrary bytes to the client's opReadBlocks
// reply decode, plain and into a pooled frame as ReadBlocksFrame does:
// both agree, never panic, and an accepted reply holds exactly the
// blocks asked for, each inside the reply.
func FuzzParseBlockRun(f *testing.F) {
	run := binary.AppendUvarint(nil, 2)
	run = wire.AppendBytes(wire.AppendBytes(run, []byte("first")), []byte("second"))
	for _, seed := range [][]byte{run, run[:len(run)-1], {0}, binary.AppendUvarint(nil, 1<<40),
		binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<63)} {
		f.Add(seed, uint16(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, count uint16) {
		plain, err := parseBlockRun(body, int(count), nil)
		fr := framePool.Get().(*BlockFrame)
		fr.buf = append(fr.buf[:0], body...)
		pooled, perr := parseBlockRun(fr.buf, int(count), fr.blocks[:0])
		if (err == nil) != (perr == nil) {
			t.Fatalf("plain decode %v, pooled decode %v", err, perr)
		}
		if err == nil {
			if len(plain) != int(count) || len(pooled) != int(count) {
				t.Fatalf("asked for %d blocks, got %d and %d", count, len(plain), len(pooled))
			}
			total := 0
			for i := range plain {
				if !bytes.Equal(plain[i], pooled[i]) {
					t.Fatalf("block %d decodes differently into the pooled frame", i)
				}
				total += len(plain[i])
			}
			if total > len(body) {
				t.Fatalf("%d block bytes decoded from a %d-byte reply", total, len(body))
			}
			fr.blocks = pooled
		}
		fr.Release()
	})
}
