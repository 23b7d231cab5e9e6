package dsp

// The write-ahead log behind FileStore. One file of framed records:
//
//	[u32le body length][u32le CRC-32C of body][body]
//	body = [1 record type][type-specific payload]
//
// Every mutation FileStore acknowledges is a record here; the in-memory
// MemStore it serves reads from is a pure replay of the log. The frame
// CRC turns a kill -9 mid-append into a detectably torn tail: recovery
// replays records until the first frame that is short or fails its
// checksum and truncates the file there, so the store restarts on the
// longest durable prefix and appends continue from a clean boundary.
//
// Durability is batched (group commit): appends go to the file under one
// mutex, but fsync runs under a second mutex the barrier never leaves
// for the first — while one fsync is in flight every other committer
// keeps appending, and the next fsync covers all of them with a single
// disk barrier. A committer whose offset an earlier barrier already
// covered returns without touching the disk at all.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// WAL record types. Each record carries one whole mutation: a document,
// a rule set, or a delta commit — base, new header and every changed
// block, encoded as appendDelta encodes it for the wire. Types 3–6 were
// the staged update handshake's begin, put-blocks, commit and abort
// records; a log holding them is refused at open.
const (
	recPutDocument      = 1
	recPutRuleSet       = 2
	recRetiredBegin     = 3
	recRetiredPutBlocks = 4
	recRetiredCommit    = 5
	recRetiredAbort     = 6
	recCommitDelta      = 7
)

// walFrameOverhead is the per-record framing cost (length + CRC).
const walFrameOverhead = 8

// maxWalRecord bounds one record body; a longer length prefix during
// replay is treated as a torn tail, the same as a failed CRC.
const maxWalRecord = maxFrame

// crcTable is the Castagnoli polynomial (hardware-accelerated on the
// platforms this runs on).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walWriter appends framed records to an open log file and tracks which
// prefix of the file is known durable.
type walWriter struct {
	mu       sync.Mutex // serializes appends (FileStore orders them per document)
	f        *os.File
	appended atomic.Int64 // file size after the last append (written under mu)

	syncMu sync.Mutex   // serializes fsyncs and resets; group commit happens here
	synced atomic.Int64 // bytes of the log known durable

	// The counters are read without locks (statsSnapshot): an append
	// adds its bytes before its record.
	syncs         atomic.Int64 // fsync barriers actually issued
	bytesAppended atomic.Int64 // record bytes appended (frames included)
	records       atomic.Int64
	noSync        bool
}

// openWalWriter opens (creating if absent) the log for appending. size
// is the current, already-validated length of the file — replay runs
// first and truncates any torn tail before the writer takes over.
func openWalWriter(path string, size int64, noSync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	w := &walWriter{f: f, noSync: noSync}
	w.appended.Store(size)
	w.synced.Store(size)
	return w, nil
}

// frame wraps a record body with its length and checksum.
func frame(body []byte) []byte {
	out := make([]byte, walFrameOverhead, walFrameOverhead+len(body))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(body, crcTable))
	return append(out, body...)
}

// append writes one framed record and returns the file offset its last
// byte ends at — the offset a caller passes to syncTo for durability.
// The caller must hold w.mu.
func (w *walWriter) append(body []byte) (int64, error) {
	if len(body) > maxWalRecord {
		return 0, fmt.Errorf("dsp: wal record of %d bytes exceeds limit", len(body))
	}
	fr := frame(body)
	if _, err := w.f.Write(fr); err != nil {
		return 0, err
	}
	w.bytesAppended.Add(int64(len(fr)))
	w.records.Add(1)
	return w.appended.Add(int64(len(fr))), nil
}

// syncTo makes everything up to offset off durable. Offsets already
// covered by a concurrent barrier return immediately — that is the
// group-commit batching. It never takes the append mutex, which a
// checkpoint holds while it waits for this barrier's committers.
func (w *walWriter) syncTo(off int64) error {
	if w.noSync || w.synced.Load() >= off {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	// Capture the appended size before the barrier: bytes written after
	// Sync is entered may not be covered by it. A log shorter than off
	// was reset by a checkpoint since the append, whose fsynced image
	// holds the record.
	cur := w.appended.Load()
	if w.synced.Load() >= off || off > cur {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	w.synced.Store(cur)
	return nil
}

// reset truncates the log to empty after a checkpoint has absorbed its
// contents. The caller must hold w.mu (no appends in flight); syncMu
// keeps a barrier from recording the old log's length as durable.
func (w *walWriter) reset() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if !w.noSync {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.syncs.Add(1)
	}
	w.appended.Store(0)
	w.synced.Store(0)
	return nil
}

func (w *walWriter) size() int64 { return w.appended.Load() }

// statsSnapshot returns (records, appendedBytes, syncs, size) without
// taking a lock — a checkpoint can hold the append mutex for as long as
// it takes to write an image. Records is read before AppendedBytes,
// which an append bumps first, so a record is never counted without its
// bytes.
func (w *walWriter) statsSnapshot() (records, appendedBytes, syncs, size int64) {
	records = w.records.Load()
	return records, w.bytesAppended.Load(), w.syncs.Load(), w.appended.Load()
}

func (w *walWriter) close() error { return w.f.Close() }

// replayWal scans the log, handing each intact record body to apply in
// order. It stops at the first torn frame (short header, short body,
// oversized length, or CRC mismatch), truncates the file there, and
// reports how many bytes of clean log remain. Records after a torn
// frame are unreachable by construction: nothing was acknowledged past
// an unsynced tail.
func replayWal(path string, apply func(body []byte) error) (size int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	pos := 0
	for {
		if len(data)-pos < walFrameOverhead {
			torn = pos < len(data)
			break
		}
		n := binary.LittleEndian.Uint32(data[pos : pos+4])
		want := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if n > maxWalRecord || int(n) > len(data)-pos-walFrameOverhead {
			torn = true
			break
		}
		body := data[pos+walFrameOverhead : pos+walFrameOverhead+int(n)]
		if crc32.Checksum(body, crcTable) != want {
			torn = true
			break
		}
		if err := apply(body); err != nil {
			return 0, false, err
		}
		pos += walFrameOverhead + int(n)
	}
	if torn {
		if err := os.Truncate(path, int64(pos)); err != nil {
			return 0, false, fmt.Errorf("dsp: truncating torn wal tail: %w", err)
		}
	}
	return int64(pos), torn, nil
}
