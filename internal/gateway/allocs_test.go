package gateway

import (
	"encoding/binary"
	"net"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/proxy"
	"repro/internal/race"
	"repro/internal/wire"
)

// gatewayQueryAllocs bounds what one warmed query costs, counted
// process-wide over the whole deployed path: the client's request and
// reply (its QueryResult and XML string, 2), gatewayd's dispatch, the
// fleet's checkout, the session's header fetch from dspd and card
// evaluation (its prefetch goroutine, 1), block reads through the
// gateway's cache, the view and the reply frame — and dspd serving the
// header.
const gatewayQueryAllocs = 3

// TestGatewayQueryAllocs: a warmed gatewayd — fleet over a block cache
// over a dsp pool, as the daemon assembles it — answering one client
// over loopback allocates no more per query than gatewayQueryAllocs + 1.
// The serve loops run requests on resident workers into pooled buffers,
// the header is decoded into storage the client and the card keep, the
// cache appends a run to the pipeline's kept list, and the view is built
// in a released result's storage.
func TestGatewayQueryAllocs(t *testing.T) {
	w := newWorld(t, 1)
	pool, err := dsp.DialPool(w.dspAddr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	fl, err := fleet.New(fleet.Config{
		Store:    dsp.NewCache(pool, 8<<20),
		Keys:     fleet.FixedKeys(w.keys),
		Prefetch: proxy.DefaultPrefetch,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fl, ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		_ = srv.Close()
		fl.Close()
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Open(subjectName(0))
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		res, err := s.Query(testDoc, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.XML != w.oracle[templateOf(0)] {
			t.Fatalf("gatewayd's view differs from the oracle:\n%s\nwant\n%s", res.XML, w.oracle[templateOf(0)])
		}
	}
	for i := 0; i < 32; i++ {
		query() // provision the session, fill the cache, warm every pool
	}
	allocs := testing.AllocsPerRun(200, query)
	t.Logf("%.2f allocations per warmed gateway query", allocs)
	if race.Enabled {
		return
	}
	if allocs > gatewayQueryAllocs+1 {
		t.Fatalf("a warmed gateway query made %.2f allocations, want at most %d", allocs, gatewayQueryAllocs+1)
	}
}

// TestDispatchKeepsNoRequestBytes: gatewayd's serve loop reuses a request
// buffer once dispatch returns, so the subject a wire session is bound
// to, and the document id and query the fleet files its state under,
// must be copies. Each request is overwritten as soon as it returns.
// (wire's TestInternerKeepsNoInputBytes covers the table itself.)
func TestDispatchKeepsNoRequestBytes(t *testing.T) {
	w := newWorld(t, 1)
	fl, err := fleet.New(fleet.Config{Store: w.store, Keys: fleet.FixedKeys(w.keys)})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	srv := NewServer(fl, ServerConfig{})
	cs := &connState{sessions: make(map[uint64]string)}
	run := func(req []byte) []byte {
		t.Helper()
		resp := srv.dispatch(cs, req)
		for i := range req {
			req[i] = 0xa5
		}
		if len(resp) == 0 || resp[0] != wire.StatusOK {
			t.Fatalf("request refused: %q", resp)
		}
		return resp[1:]
	}
	subject := subjectName(0)
	r := wire.NewReader(run(wire.AppendString([]byte{opOpen}, subject)))
	sid := r.Uvarint()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for _, query := range []string{"", "//patient/name"} {
		for i := 0; i < 3; i++ {
			req := binary.AppendUvarint([]byte{opQuery}, sid)
			run(wire.AppendString(wire.AppendString(req, testDoc), query))
		}
	}
	if got := cs.sessions[sid]; got != subject {
		t.Fatalf("wire session %d is bound to %q after its request was reused, want %q", sid, got, subject)
	}
	// A document id that aliased a request would be garbage by now, and
	// the fleet would provision the session for it again.
	if st := fl.SubjectStats(subject); st.Provisions != 1 || st.Queries != 6 {
		t.Fatalf("after 6 queries of one document the fleet made %d provisions (want 1) and counted %d queries", st.Provisions, st.Queries)
	}
	res := run(wire.AppendString(wire.AppendString(binary.AppendUvarint([]byte{opQuery}, sid), testDoc), ""))
	rd := wire.NewReader(res)
	rd.Uvarint()
	rd.Uvarint()
	rd.Uvarint()
	if got := string(rd.Rest()); got != w.oracle[templateOf(0)] {
		t.Fatalf("a query after the requests were reused answered\n%s\nwant\n%s", got, w.oracle[templateOf(0)])
	}
}
