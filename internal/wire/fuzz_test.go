package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// chunkReader serves data in reads whose sizes cycle through sizes, the
// way a socket hands over whatever segments have arrived.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(r.sizes) > 0 {
		n = int(r.sizes[r.i%len(r.sizes)]) + 1
		r.i++
	}
	n = copy(p[:min(n, len(p))], r.data)
	r.data = r.data[n:]
	return n, nil
}

// decodeAll is the oracle: the frames of a whole stream decoded at once,
// and the error the stream ends in.
func decodeAll(data []byte, limit int) (frames [][]byte, n uint32, err error) {
	for {
		switch {
		case len(data) == 0:
			return frames, 0, io.EOF
		case len(data) < 4:
			return frames, 0, io.ErrUnexpectedEOF
		}
		n = binary.BigEndian.Uint32(data)
		if uint64(n) > uint64(limit) {
			return frames, n, errors.New("exceeds limit")
		}
		if data = data[4:]; uint64(len(data)) < uint64(n) {
			return frames, 0, io.ErrUnexpectedEOF
		}
		frames = append(frames, data[:n])
		data = data[n:]
	}
}

// FuzzReadFrames: one connection's buffered reader, fed a stream in reads
// of arbitrary sizes, returns the same frames and ends in the same error
// as the oracle; a length past the limit is refused before anything is
// allocated for it. (TestLargeFrameBypassesBuffer covers a body past the
// read buffer's size: inputs that large make the fuzzer crawl.)
func FuzzReadFrames(f *testing.F) {
	const limit = 1 << 10
	var stream []byte
	for _, p := range [][]byte{nil, {StatusOK}, bytes.Repeat([]byte{7}, 300), bytes.Repeat([]byte{9}, limit)} {
		stream = append(stream, frame(p)...)
	}
	f.Add(stream, []byte{0})
	f.Add(stream, []byte{3, 255, 1})
	f.Add(stream[:len(stream)-1], []byte{200})
	f.Add(append(frame([]byte("ok")), 0xff, 0xff, 0xff, 0xff), []byte{})
	f.Add(append(frame([]byte("ok")), 0, 0, 4, 1), []byte{5})
	f.Add([]byte{0, 0}, []byte{1})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		want, hostile, wantErr := decodeAll(data, limit)
		fc := readConn(&chunkReader{data: data, sizes: sizes}, limit)
		var buf []byte
		for i := 0; ; i++ {
			var before runtime.MemStats
			if i == len(want) && hostile > 0 {
				runtime.ReadMemStats(&before)
			}
			got, err := fc.ReadFrame(buf)
			if err != nil {
				if i != len(want) {
					t.Fatalf("the reader failed at frame %d of %d: %v", i, len(want), err)
				}
				if errors.Is(wantErr, io.EOF) || errors.Is(wantErr, io.ErrUnexpectedEOF) {
					if !errors.Is(err, wantErr) {
						t.Fatalf("the stream ended in %v, want %v", err, wantErr)
					}
					return
				}
				if !strings.Contains(err.Error(), wantErr.Error()) {
					t.Fatalf("the stream ended in %v, want a refusal", err)
				}
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(hostile) {
					t.Fatalf("refusing a %d-byte frame allocated %d bytes", hostile, grew)
				}
				return
			}
			if i >= len(want) || !bytes.Equal(got, want[i]) {
				t.Fatalf("frame %d is %x, want the oracle's", i, got)
			}
			buf = got
		}
	})
}
