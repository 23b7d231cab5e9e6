package bench

import (
	"fmt"
	"net"
	"time"

	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// E11 measures the write path the paper's update model implies (Section
// 5: documents evolve, rights change) at three churn levels: when a
// fraction of a published document's values change, what does it cost to
// bring the DSP to the new version? The historical path re-encodes and
// re-uploads the whole container; the delta path (streaming encoder +
// block differ + one commit frame) uploads only the changed block runs. Bytes-on-wire are accounted at the client (request payload
// bytes), so the comparison is what actually crossed the network — over
// real loopback TCP, like E9/E10.

const e11Doc = "e11-folder"

// E11Rig is a loopback DSP reachable through one accounting client.
type E11Rig struct {
	Client *dsp.Client
	Key    secure.DocKey
	srv    *dsp.Server
}

// NewE11Rig starts a cache-fronted store server and dials it.
func NewE11Rig() (*E11Rig, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &E11Rig{Key: secure.KeyFromSeed(e11Doc)}
	r.srv = dsp.NewServer(dsp.NewCache(dsp.NewMemStore(), 32<<20))
	go func() { _ = r.srv.Serve(l) }()
	r.Client, err = dsp.Dial(l.Addr().String())
	if err != nil {
		_ = r.srv.Close()
		return nil, err
	}
	return r, nil
}

// Close hangs up and drains the server.
func (r *E11Rig) Close() {
	_ = r.Client.Close()
	_ = r.srv.Close()
}

// E11BaseDocument is the published document the churn sweep edits.
func E11BaseDocument() *xmlstream.Node {
	return workload.MedicalFolder(workload.MedicalConfig{Seed: 1100, Patients: 60, VisitsPerPatient: 4})
}

// ChurnDocument returns a copy of root with roughly `percent` percent of
// its text values rewritten in place — same length, different bytes, so
// the edit models a value update rather than a structural change and the
// block delta stays local to the touched values.
func ChurnDocument(root *xmlstream.Node, percent int) *xmlstream.Node {
	if percent < 1 {
		percent = 1
	}
	every := 100 / percent
	if every < 1 {
		every = 1
	}
	n := 0
	var clone func(*xmlstream.Node) *xmlstream.Node
	clone = func(x *xmlstream.Node) *xmlstream.Node {
		cp := &xmlstream.Node{Name: x.Name, Text: x.Text}
		if x.IsText() {
			if n++; n%every == 0 && len(x.Text) > 0 {
				b := []byte(x.Text)
				for i := range b {
					b[i] = 'a' + (b[i]+5)%26
				}
				cp.Text = string(b)
			}
			return cp
		}
		for _, c := range x.Children {
			cp.Children = append(cp.Children, clone(c))
		}
		return cp
	}
	return clone(root)
}

// e11Opts is the shared encoding geometry.
func e11Opts(key secure.DocKey) docenc.EncodeOptions {
	return docenc.EncodeOptions{DocID: e11Doc, Key: key, BlockPlain: 256, MinSkipBytes: 32}
}

// E11FullRepublish publishes base then re-uploads the mutated tree as a
// whole container, returning the re-publication's wire bytes and wall
// time.
func E11FullRepublish(base, mutated *xmlstream.Node) (bytes int64, wall time.Duration, err error) {
	rig, err := NewE11Rig()
	if err != nil {
		return 0, 0, err
	}
	defer rig.Close()
	pub := &proxy.Publisher{Store: rig.Client}
	if _, err := pub.PublishDocument(base, e11Opts(rig.Key)); err != nil {
		return 0, 0, err
	}
	before := rig.Client.BytesWritten()
	start := time.Now()
	opts := e11Opts(rig.Key)
	opts.Version = 1
	if _, err := pub.PublishDocument(mutated, opts); err != nil {
		return 0, 0, err
	}
	return rig.Client.BytesWritten() - before, time.Since(start), nil
}

// E11DeltaRepublishRun publishes base then pushes the mutated tree as a
// block delta, returning the re-publication's wire bytes, wall time and
// the delta's shape.
func E11DeltaRepublishRun(base, mutated *xmlstream.Node) (bytes int64, wall time.Duration, ri *proxy.RepublishInfo, err error) {
	rig, err := NewE11Rig()
	if err != nil {
		return 0, 0, nil, err
	}
	defer rig.Close()
	pub := &proxy.Publisher{Store: rig.Client}
	if _, err := pub.PublishDocument(base, e11Opts(rig.Key)); err != nil {
		return 0, 0, nil, err
	}
	before := rig.Client.BytesWritten()
	start := time.Now()
	ri, err = pub.Republish(mutated, e11Opts(rig.Key))
	if err != nil {
		return 0, 0, nil, err
	}
	return rig.Client.BytesWritten() - before, time.Since(start), ri, nil
}

// E11DeltaRepublish compares full vs delta re-publication at 1%, 10%
// and 50% value churn over loopback TCP. Recorded metrics: absolute
// bytes-on-wire for both paths and the delta/full ratio (all gated —
// the workload is seeded, so wire bytes are deterministic); wall times
// are informational.
func E11DeltaRepublish(rec *Recorder) []*Table {
	base := E11BaseDocument()
	t := &Table{
		ID:    "E11",
		Title: "re-publish cost: full container vs block delta (loopback TCP)",
		Columns: []string{"churn", "blocks changed", "full KB", "delta KB", "delta/full",
			"full ms", "delta ms"},
		Notes: []string{
			"churn: fraction of text values rewritten in place (same length)",
			"bytes: request payload accounted at the client — header probe, base reads and the commit frame with its blocks",
			"delta also pays reading the old version back for the diff (counted in delta ms, not KB)",
			"wall-clock measurement (real network server); workload is seeded",
		},
	}
	for _, churn := range []int{1, 10, 50} {
		mutated := ChurnDocument(base, churn)
		fullBytes, fullWall, err := E11FullRepublish(base, mutated)
		if err != nil {
			panic(err)
		}
		deltaBytes, deltaWall, ri, err := E11DeltaRepublishRun(base, mutated)
		if err != nil {
			panic(err)
		}
		rec.RecordLower(fmt.Sprintf("full_bytes_churn%d", churn), "B", float64(fullBytes))
		rec.RecordLower(fmt.Sprintf("delta_bytes_churn%d", churn), "B", float64(deltaBytes))
		rec.RecordLower(fmt.Sprintf("delta_full_ratio_churn%d", churn), "ratio",
			float64(deltaBytes)/float64(fullBytes))
		rec.Record(fmt.Sprintf("full_ms_churn%d", churn), "ms",
			float64(fullWall)/float64(time.Millisecond))
		rec.Record(fmt.Sprintf("delta_ms_churn%d", churn), "ms",
			float64(deltaWall)/float64(time.Millisecond))
		t.AddRow(
			fmt.Sprintf("%d%%", churn),
			fmt.Sprintf("%d/%d", ri.ChangedBlocks, ri.TotalBlocks),
			kb(fullBytes),
			kb(deltaBytes),
			pct(float64(deltaBytes), float64(fullBytes)),
			ms(fullWall),
			ms(deltaWall),
		)
	}
	return []*Table{t}
}
