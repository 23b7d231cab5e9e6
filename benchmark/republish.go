package main

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/gateway"
	"repro/internal/proxy"
	"repro/internal/secure"
)

// republishMix runs writes beside reads on the portal_hot corpus: one
// writer looping delta re-publications over its own store pool while
// the remaining clients query the same documents through the gateway.
// The reported operation is the commit; the readers' delivered bytes are
// the payload figure, so a read gain bought with longer locks shows on
// one side and a commit-path cost on the other.
type republishMix struct {
	corpus  *portalCorpus
	clients int
	hash    maphash.Seed

	rig     *rig
	readers []*portalReader
	writer  *writer

	mu  sync.Mutex
	obs []observation
}

// A reader's query tears while a commit of its document is in flight.
// The store makes the new header and blocks visible first, then waits
// for the log to reach the disk, and only when the commit returns does
// dspd's cache drop the document's old blocks; until then the cache
// serves them under the new header, and every query that needs a changed
// block fails its MAC check. The tear therefore lasts as long as the
// flush: about one query in fifty meets one here, and nearly always the
// next try succeeds, but a flush that the host's disk holds up for a
// tenth of a second fails thirty tries in a row. The reader asks again
// for tornReadPatience, pausing between tries, which is what a client of
// a store without snapshots has to do; a document that still tears after
// that long is not being committed, it is broken.
const (
	tornReadPatience = 20 * time.Second
	tornReadPause    = 250 * time.Microsecond
)

// observation is one reply the oracle judges after the window: which
// view of which version a reader was served.
type observation struct {
	doc, profile int
	version      uint32
	sum          uint64
}

func newRepublishMix(seed int64, sz sizes, clients int) (instance, error) {
	return &republishMix{corpus: newPortalCorpus(seed, sz), clients: clients, hash: maphash.MakeSeed()}, nil
}

// writer is the publishing client: its own pool, its own copy of every
// document, and the seed-determined edit sequence per document.
type writer struct {
	corpus  *portalCorpus
	pool    *dsp.Pool
	pub     *proxy.Publisher
	rng     *rand.Rand
	editors []*editor
	// acked[d] is the last version of document d whose commit was
	// acknowledged; attempted[d] the last one handed to the store.
	acked, attempted []uint32

	commits, deltaBytes int64
}

func newWriter(addr string, c *portalCorpus) (*writer, error) {
	pool, err := dsp.DialPool(addr, 1)
	if err != nil {
		return nil, err
	}
	w := &writer{
		corpus: c, pool: pool, pub: &proxy.Publisher{Store: pool},
		rng: rand.New(rand.NewSource(c.seed*15485863 + 1)),
	}
	for d := range c.docIDs {
		w.editors = append(w.editors, c.editor(d))
		w.acked = append(w.acked, 1)
		w.attempted = append(w.attempted, 1)
	}
	return w, nil
}

// commit edits one field of document d and re-publishes it as a delta.
func (w *writer) commit(d int) error {
	w.editors[d].next()
	w.attempted[d]++
	info, err := w.pub.Republish(w.editors[d].tree, w.corpus.encodeOptions(d))
	if err != nil {
		return err
	}
	if info.Version != w.attempted[d] {
		return fmt.Errorf("%s committed as version %d, the writer's edit sequence is at %d",
			w.corpus.docIDs[d], info.Version, w.attempted[d])
	}
	if info.Fallback {
		return fmt.Errorf("%s went up as a whole container, not as a delta", w.corpus.docIDs[d])
	}
	w.acked[d] = info.Version
	w.commits++
	w.deltaBytes += info.BytesUploaded
	return nil
}

func (w *writer) client() *client {
	return &client{op: func() (int64, func() error, error) {
		return 0, nil, w.commit(w.rng.Intn(len(w.editors)))
	}}
}

// observe is a reader's reply check: versions of one document never go
// backwards on one connection, and the reply is kept for the oracle.
func (m *republishMix) observe() func(subject, doc int, res *gateway.QueryResult) error {
	last := make([]uint32, len(m.corpus.docIDs))
	return func(subject, doc int, res *gateway.QueryResult) error {
		if res.Version < last[doc] {
			return fmt.Errorf("%s served at version %d after version %d", m.corpus.docIDs[doc], res.Version, last[doc])
		}
		last[doc] = res.Version
		o := observation{doc: doc, profile: subject % len(portalProfiles), version: res.Version,
			sum: maphash.String(m.hash, res.XML)}
		m.mu.Lock()
		m.obs = append(m.obs, o)
		m.mu.Unlock()
		return nil
	}
}

func (m *republishMix) setup(dir string) error {
	r, err := newPortalRig(dir, m.corpus, rigConfig{checkpointBytes: m.corpus.sz.mixCheckpointBytes, noGatewayCache: true})
	if err != nil {
		return err
	}
	m.rig = r
	m.obs = nil
	for i := 0; i < max(1, m.clients-1); i++ {
		rd, err := dialReader(r.gwAddr, m.corpus, i)
		if err != nil {
			return err
		}
		rd.check = m.observe()
		rd.retryFor = tornReadPatience
		m.readers = append(m.readers, rd)
	}
	if m.writer, err = newWriter(r.dspAddr, m.corpus); err != nil {
		return err
	}
	if err := warmUp(m.readers); err != nil {
		return err
	}
	for d := range m.corpus.docIDs {
		if err := m.writer.commit(d); err != nil {
			return fmt.Errorf("warm-up commit: %w", err)
		}
	}
	return nil
}

// mix runs the writer beside the readers for d and has the oracle judge
// what the readers were served.
func (m *republishMix) mix(d time.Duration) *window {
	wr := m.writer.client()
	wr.outlast = true
	cs := []*client{wr}
	for _, r := range m.readers {
		c := r.client()
		c.secondary = true
		cs = append(cs, c)
	}
	w := runClients(cs, d)
	m.judge(w)
	return w
}

func (m *republishMix) run(d time.Duration) (*window, error) {
	w := m.mix(d)
	_, err := m.reopen(w)
	return w, err
}

// judge runs the oracle over every observation: the reply must be the
// reference filter's view of the plaintext of the version it reports,
// the writer's edits being determined by the seed. Mismatches become
// failed operations of w.
func (m *republishMix) judge(w *window) {
	byDoc := make([][]observation, len(m.corpus.docIDs))
	for _, o := range m.obs {
		byDoc[o.doc] = append(byDoc[o.doc], o)
	}
	m.obs = nil
	var wg sync.WaitGroup
	errs := make([]error, len(byDoc))
	bad := make([]int, len(byDoc))
	docs := make(chan int)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range docs {
				bad[d], errs[d] = m.judgeDoc(d, byDoc[d])
			}
		}()
	}
	for d := range byDoc {
		docs <- d
	}
	close(docs)
	wg.Wait()
	for d := range byDoc {
		w.failed += bad[d]
		if w.firstErr == nil {
			w.firstErr = errs[d]
		}
	}
}

// judgeDoc replays the edit sequence of one document up to each observed
// version and compares every observed view with the oracle's.
func (m *republishMix) judgeDoc(d int, obs []observation) (bad int, first error) {
	sort.Slice(obs, func(i, j int) bool { return obs[i].version < obs[j].version })
	rules, err := oracleRules(portalProfiles, m.corpus.docIDs[d])
	if err != nil {
		return len(obs), err
	}
	oracle := m.corpus.editor(d)
	at := uint32(1)
	want := make(map[int]uint64, len(portalProfiles))
	for _, o := range obs {
		if o.version < 1 || o.version > m.writer.attempted[d] {
			bad++
			if first == nil {
				first = fmt.Errorf("%s served at version %d, which was never written", m.corpus.docIDs[d], o.version)
			}
			continue
		}
		if at < o.version {
			for ; at < o.version; at++ {
				oracle.next()
			}
			clear(want)
		}
		sum, ok := want[o.profile]
		if !ok {
			xml, err := view(oracle.tree, rules[o.profile])
			if err != nil {
				return len(obs), err
			}
			sum = maphash.String(m.hash, xml)
			want[o.profile] = sum
		}
		if sum != o.sum {
			bad++
			if first == nil {
				first = fmt.Errorf("reply for profile %d on %s version %d differs from the oracle's view",
					o.profile, m.corpus.docIDs[d], o.version)
			}
		}
	}
	return bad, first
}

// reopen closes the whole rig, opens the store directory again and
// checks that every acknowledged commit survived: each document must be
// at its last acknowledged version (or the one in flight when the window
// closed) and decode to the plaintext the edit sequence gives for that
// version. A lost or unreadable version is a failed operation. It
// returns the time the store took to recover.
func (m *republishMix) reopen(w *window) (time.Duration, error) {
	closeReaders(m.readers)
	m.readers = nil
	if err := errors.Join(m.writer.pool.Close(), m.rig.stopGateway(), m.rig.stopStore()); err != nil {
		return 0, err
	}
	fs, err := dsp.NewFileStoreOptions(m.rig.dir, dsp.FileStoreOptions{CheckpointBytes: m.rig.cfg.checkpointBytes})
	if err != nil {
		return 0, fmt.Errorf("reopening the store: %w", err)
	}
	defer fs.Close()
	for d, id := range m.corpus.docIDs {
		err := m.recovered(fs, d)
		if err != nil {
			err = fmt.Errorf("%s after reopen: %w", id, err)
		}
		w.note(err)
	}
	return fs.Stats().RecoveryDuration, nil
}

func (m *republishMix) recovered(fs *dsp.FileStore, d int) error {
	id := m.corpus.docIDs[d]
	h, err := fs.Header(id)
	if err != nil {
		return err
	}
	if h.Version < m.writer.acked[d] || h.Version > m.writer.attempted[d] {
		return fmt.Errorf("at version %d, acknowledged %d", h.Version, m.writer.acked[d])
	}
	blocks, err := fs.ReadBlocks(id, 0, h.NumBlocks())
	if err != nil {
		return err
	}
	tree, err := docenc.DecodeDocument(&docenc.Container{Header: h, Blocks: blocks}, secure.KeyFromSeed(id))
	if err != nil {
		return err
	}
	oracle := m.corpus.editor(d)
	for v := uint32(1); v < h.Version; v++ {
		oracle.next()
	}
	if !tree.Equal(oracle.tree) {
		return fmt.Errorf("version %d does not decode to the plaintext written as that version", h.Version)
	}
	return nil
}

func (m *republishMix) close() error {
	closeReaders(m.readers)
	m.readers = nil
	var err error
	if m.writer != nil {
		err = m.writer.pool.Close()
		m.writer = nil
	}
	if m.rig != nil {
		err = errors.Join(err, m.rig.close())
		m.rig = nil
	}
	return err
}

// checkpointWatch totals the bytes the store writes as checkpoint
// images by watching its directory from outside: a segment checkpoint
// replaces checkpoint-NNN by rename, so a file that is no longer the
// same file is a new image of its current size.
type checkpointWatch struct {
	dir   string
	seen  map[string]os.FileInfo
	bytes int64
	stop  chan struct{}
	done  chan struct{}
}

func watchCheckpoints(dir string) *checkpointWatch {
	cw := &checkpointWatch{dir: dir, seen: make(map[string]os.FileInfo), stop: make(chan struct{}), done: make(chan struct{})}
	cw.scan(false)
	go func() {
		defer close(cw.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-cw.stop:
				cw.scan(true)
				return
			case <-tick.C:
				cw.scan(true)
			}
		}
	}()
	return cw
}

func (cw *checkpointWatch) scan(count bool) {
	names, _ := filepath.Glob(filepath.Join(cw.dir, "checkpoint-[0-9]*"))
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil || filepath.Ext(name) != "" {
			continue // a temp image mid-write, or replaced under us
		}
		if old, ok := cw.seen[name]; !ok || !os.SameFile(old, fi) {
			cw.seen[name] = fi
			if count {
				cw.bytes += fi.Size()
			}
		}
	}
}

// total stops the watch and returns the image bytes written since it
// started.
func (cw *checkpointWatch) total() int64 {
	close(cw.stop)
	<-cw.done
	return cw.bytes
}
