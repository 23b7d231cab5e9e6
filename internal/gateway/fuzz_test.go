package gateway

import (
	"encoding/binary"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/secure"
	"repro/internal/wire"
)

// FuzzGatewayDispatch feeds arbitrary bytes to dispatch as one request
// against a connection whose session table holds session 1: decoding
// never panics, the reply carries a status byte, and the open-session
// gauge moves exactly as the table does.
func FuzzGatewayDispatch(f *testing.F) {
	fl, err := fleet.New(fleet.Config{
		Store: dsp.NewMemStore(),
		Keys:  fleet.FixedKeys(map[string]secure.DocKey{}),
	})
	if err != nil {
		f.Fatal(err)
	}
	defer fl.Close()
	srv := NewServer(fl, ServerConfig{})

	query := func(sid uint64, docID, q string) []byte {
		return wire.AppendString(wire.AppendString(binary.AppendUvarint([]byte{opQuery}, sid), docID), q)
	}
	for _, seed := range [][]byte{
		nil,
		{0},
		wire.AppendString([]byte{opOpen}, "alice"),
		wire.AppendString([]byte{opOpen}, ""),
		binary.AppendUvarint([]byte{opOpen}, 1<<63),
		query(1, "doc", ""),
		query(2, "doc", "//a"),
		binary.AppendUvarint(binary.AppendUvarint([]byte{opQuery}, 1), 1<<63),
		binary.AppendUvarint([]byte{opClose}, 1),
		binary.AppendUvarint([]byte{opClose}, 7),
		{opClose, 0x81, 0x00},
		{opStats},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		cs := &connState{next: 1, sessions: map[uint64]string{1: "alice"}}
		srv.wireSessions.Store(1)
		resp := srv.dispatch(cs, req)
		if len(resp) == 0 || resp[0] > wire.StatusErr {
			t.Fatalf("reply %x has no status byte", resp)
		}
		if got := srv.wireSessions.Load(); got != int64(len(cs.sessions)) {
			t.Fatalf("gauge says %d sessions, the table holds %d", got, len(cs.sessions))
		}
		wire.PutBuf(resp)
	})
}
