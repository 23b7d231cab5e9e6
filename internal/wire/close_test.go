package wire_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/wire"
)

// pipeListener hands out the server ends of in-memory pipes. A pipe has
// no buffer, so a client that stops reading stalls the server's very
// next write.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

// TestCloseBoundedByStalledReader: a client sends one request and never
// reads the reply. Close on either daemon must still return within the
// drain grace — the write deadline breaks the stalled write — instead of
// waiting for the client for ever.
func TestCloseBoundedByStalledReader(t *testing.T) {
	store := dsp.NewMemStore()
	fl, err := fleet.New(fleet.Config{Store: store, Keys: fleet.FixedKeys(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for _, tc := range []struct {
		name string
		srv  interface {
			Serve(net.Listener) error
			Close() error
		}
		req []byte
	}{
		{"dspd", dsp.NewServer(store), []byte{6}},                                                      // list documents
		{"gatewayd", gateway.NewServer(fl, gateway.ServerConfig{}), wire.AppendString([]byte{1}, "s")}, // open a session
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			l := newPipeListener()
			go func() { _ = tc.srv.Serve(l) }()
			client := l.dial()
			defer client.Close()
			// The pipe returns only once the server has read the frame.
			if err := wire.NewFrameConn(client, 1<<10).WriteFrame(tc.req); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			closed := make(chan error, 1)
			go func() { closed <- tc.srv.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); d > wire.DrainGrace+time.Second {
					t.Errorf("Close took %v behind a stalled reader, want at most the %v grace", d, wire.DrainGrace)
				}
			case <-time.After(wire.DrainGrace + 3*time.Second):
				t.Fatalf("Close still blocked %v after it began, behind a client that stopped reading", wire.DrainGrace+3*time.Second)
			}
		})
	}
}
