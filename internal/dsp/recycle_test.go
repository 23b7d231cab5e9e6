package dsp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/docenc"
	"repro/internal/wire"
)

// TestDispatchKeepsNoRequestBytes: the serve loop reads each request
// into a pooled buffer and reuses it once dispatch returns, so what a
// store keeps of a request — a container's blocks, a delta's, a staged
// run's, a sealed rule set — must be a copy. Every op that stores bytes
// runs against each store tier, its request is overwritten as soon as it
// returns, and the store must still hold byte for byte what was sent.
func TestDispatchKeepsNoRequestBytes(t *testing.T) {
	stores := map[string]func(t *testing.T) Store{
		"mem":  func(*testing.T) Store { return NewMemStore() },
		"file": func(t *testing.T) Store { return openFileStore(t, t.TempDir(), FileStoreOptions{}) },
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			store := open(t)
			srv := NewServer(store)
			run := func(req []byte) []byte {
				t.Helper()
				op := req[0]
				resp := srv.dispatch(req)
				body := append([]byte(nil), resp.head[4:]...)
				resp.release()
				for i := range req {
					req[i] = 0xa5
				}
				if len(body) == 0 || body[0] != wire.StatusOK {
					t.Fatalf("op %d refused: %q", op, body)
				}
				return body[1:]
			}
			holds := func(want *docenc.Container) {
				t.Helper()
				h, err := store.Header(want.Header.DocID)
				if err != nil {
					t.Fatal(err)
				}
				if !h.Equal(&want.Header) {
					t.Fatalf("the store holds header %+v, want %+v", h, want.Header)
				}
				got, err := store.ReadBlocks(want.Header.DocID, 0, len(want.Blocks))
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Blocks {
					if !bytes.Equal(got[i], want.Blocks[i]) {
						t.Fatalf("version %d block %d changed after its request was reused", want.Header.Version, i)
					}
				}
			}

			v1 := sealedContainer("kept", 1)
			body, err := v1.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			run(append([]byte{opPutDocument}, body...))
			holds(v1)

			sealed := bytes.Repeat([]byte("sealed rules "), 8)
			req := wire.AppendString([]byte{opPutRuleSet}, "kept")
			req = wire.AppendString(req, "alice")
			req = wire.AppendBytes(binary.AppendUvarint(req, 1), sealed)
			run(req)
			if got, err := store.RuleSet("kept", "alice"); err != nil || !bytes.Equal(got, sealed) {
				t.Fatalf("the stored rule set changed after its request was reused: %q, %v", got, err)
			}

			d := nextDelta(v1)
			v2 := sealedContainer("kept", 2)
			v2.Blocks = append([][]byte(nil), v1.Blocks...)
			for _, r := range d.Runs {
				copy(v2.Blocks[r.Start:], r.Blocks)
			}
			run(appendDelta([]byte{opCommitDelta}, d))
			holds(v2)

			v3 := sealedContainer("kept", 3)
			hb, err := v3.Header.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			r := wire.NewReader(run(wire.AppendBytes(binary.AppendUvarint([]byte{opBeginUpdate}, 2), hb)))
			token := r.Uvarint()
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
			req = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint([]byte{opPutBlocks}, token), 0), uint64(len(v3.Blocks)))
			for _, b := range v3.Blocks {
				req = wire.AppendBytes(req, b)
			}
			run(req)
			run(binary.AppendUvarint([]byte{opCommitUpdate}, token))
			holds(v3)
		})
	}
}
