package wire

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/race"
)

// TestCloseStopsResidentWorkers: the workers a server starts stay for
// request after request, so Close must stop them. Several connections
// keep requests in flight until every worker has started; after Close and
// the clients' hang-up the goroutine count is back at its baseline.
func TestCloseStopsResidentWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const workers, conns, perConn = 4, 6, 24
	srv, l, dispatched := echoServer(t, workers, 8)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			fc := NewFrameConn(conn, testLimit)
			for i := 0; i < perConn; i++ {
				if err := fc.WriteFrame([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < perConn; i++ {
				if resp, err := fc.ReadFrame(nil); err != nil || !bytes.Equal(resp, []byte{StatusOK, byte(i)}) {
					t.Errorf("reply %d: %v, %v", i, resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := dispatched.Load(); got != conns*perConn {
		t.Fatalf("%d requests dispatched, want %d", got, conns*perConn)
	}
	if live := srv.live.Load(); live != workers {
		t.Fatalf("%d resident workers after a pipelined load on %d connections, want the bound %d", live, conns, workers)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before the server started:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestInternerKeepsNoInputBytes: a string the table hands out is its own
// copy, whatever happens to the bytes it was made from, and the same
// bytes later come back as that string without an allocation.
func TestInternerKeepsNoInputBytes(t *testing.T) {
	var tab Interner
	in := []byte("folder-17")
	s := tab.String(in)
	for i := range in {
		in[i] = 'x'
	}
	if s != "folder-17" {
		t.Fatalf("the interned string reads %q once its input was overwritten", s)
	}
	again := []byte("folder-17")
	if got := tab.String(again); got != s {
		t.Fatalf("a second lookup gave %q", got)
	}
	allocs := testing.AllocsPerRun(100, func() { _ = tab.String(again) })
	if !race.Enabled && allocs != 0 {
		t.Fatalf("a lookup of a held string made %.1f allocations, want 0", allocs)
	}
}

// TestInternerBounded: a client that names a new document in every
// request, or a huge one, costs the table no more than its bound.
func TestInternerBounded(t *testing.T) {
	var tab Interner
	for i := 0; i < 5*maxInterned; i++ {
		if s := tab.String([]byte(fmt.Sprintf("doc-%d", i))); s != fmt.Sprintf("doc-%d", i) {
			t.Fatalf("lookup %d gave %q", i, s)
		}
		if len(tab.m) > maxInterned {
			t.Fatalf("the table holds %d strings, bound %d", len(tab.m), maxInterned)
		}
	}
	long := strings.Repeat("d", maxInternedLen+1)
	if s := tab.String([]byte(long)); s != long {
		t.Fatal("a long field came back changed")
	}
	if _, held := tab.m[long]; held {
		t.Fatalf("the table keeps a %d-byte field, bound %d", len(long), maxInternedLen)
	}
}
