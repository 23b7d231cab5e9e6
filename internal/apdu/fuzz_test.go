package apdu

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/card"
	"repro/internal/workload"
)

// TestAppletHostileFieldLength: a command whose first string declares
// 2^63 - 1 bytes is malformed data, not a slice panic — the field length
// is compared against the bytes left before anything is sliced by it.
func TestAppletHostileFieldLength(t *testing.T) {
	hostile := append(binary.AppendUvarint(nil, math.MaxInt64), 'x')
	for _, ins := range []byte{INSPutKey, INSPutRules, INSBegin} {
		app := NewApplet(card.New(card.Modern))
		resp := app.Process(Command{CLA: AppletCLA, INS: ins, P1: 1, Data: hostile})
		if resp.SW != SWWrongData {
			t.Errorf("INS %02X with a 2^63-byte field: SW %04X, want %04X", ins, resp.SW, SWWrongData)
		}
	}
}

// recorder is a Channel that keeps every command it forwards, encoded as
// FuzzAppletProcess reads them.
type recorder struct {
	Channel
	script []byte
}

func (r *recorder) Exchange(c Command) (Response, error) {
	r.script = appendCommand(r.script, c)
	return r.Channel.Exchange(c)
}

// appendCommand encodes one command as INS, P1, data length, data.
func appendCommand(b []byte, c Command) []byte {
	return append(append(b, c.INS, c.P1, byte(len(c.Data))), c.Data...)
}

// FuzzAppletProcess feeds arbitrary command sequences to one applet over
// a fresh card: whatever the order, chunking or contents, every command
// maps to a status word and nothing panics. The seeds are a whole
// provision → install → query dialogue and pieces of it.
func FuzzAppletProcess(f *testing.F) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 3, Members: 2, EventsPerMember: 2})
	term, _, key := newAppletRig(f, doc, "a", "subject u\ndefault +\n- //phone")
	rec := &recorder{Channel: term.Channel}
	term.Channel = rec
	if err := term.ProvisionKey("a", key.Marshal()); err != nil {
		f.Fatal(err)
	}
	if err := term.InstallRules("u", "a"); err != nil {
		f.Fatal(err)
	}
	provisioned := len(rec.script)
	if _, err := term.Query("u", "a", ""); err != nil {
		f.Fatal(err)
	}
	script := rec.script
	f.Add(script)
	f.Add(script[:provisioned])
	f.Add(script[:len(script)/2])
	f.Add(appendCommand(nil, Command{INS: INSBegin, Data: append(binary.AppendUvarint(nil, math.MaxInt64), 0)}))
	f.Fuzz(func(t *testing.T, script []byte) {
		app := NewApplet(card.New(card.Modern))
		for len(script) >= 3 {
			c := Command{CLA: AppletCLA, INS: script[0], P1: script[1]}
			n := min(int(script[2]), len(script)-3)
			c.Data, script = script[3:3+n], script[3+n:]
			app.Process(c)
		}
	})
}
