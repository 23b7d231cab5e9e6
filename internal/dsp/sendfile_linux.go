//go:build linux && !nosendfile

package dsp

import (
	"os"
	"syscall"
)

// sendfileSupported lets connections attempt the kernel-resident cold
// serve path. The nosendfile build tag exists only so CI can compile
// and test the portable writev fallback on linux.
const sendfileSupported = true

// sendfileChunk bounds one sendfile syscall (the kernel caps a single
// call around 2 GiB anyway; staying well under keeps the offset
// arithmetic trivially safe).
const sendfileChunk = 1 << 30

// sendfileState is one connection writer's sendfile in progress. The
// RawConn write callback reads and advances it, so the callback is bound
// once per connection and a run allocates nothing.
type sendfileState struct {
	write  func(fd uintptr) bool // step, bound on first use
	srcFd  int
	off    int64
	remain int64
	sent   int64
	// unsupported and err are step's verdicts (see send).
	unsupported bool
	err         error
}

// send ships n bytes of src starting at off into the socket behind rc,
// resuming short writes and EAGAIN via the runtime poller.
// unsupported reports a kernel refusal (ENOSYS/EINVAL/EOPNOTSUPP) that
// should latch the connection back to writev — sent bytes are already
// on the wire either way, so the caller resumes the fallback at the
// exact byte offset. A non-nil err is a dead connection.
func (st *sendfileState) send(rc syscall.RawConn, src *os.File, off, n int64) (sent int64, unsupported bool, err error) {
	if rc == nil || src == nil {
		return 0, true, nil
	}
	if st.write == nil {
		st.write = st.step
	}
	st.srcFd, st.off, st.remain, st.sent, st.unsupported, st.err = int(src.Fd()), off, n, 0, false, nil
	werr := rc.Write(st.write)
	err = st.err
	if err == nil {
		err = werr
	}
	if err != nil {
		return st.sent, false, &os.SyscallError{Syscall: "sendfile", Err: err}
	}
	return st.sent, st.unsupported, nil
}

// step is the RawConn write callback: it returns false to wait for
// writability and true once the run is done or has failed.
func (st *sendfileState) step(fd uintptr) bool {
	for st.remain > 0 {
		chunk := st.remain
		if chunk > sendfileChunk {
			chunk = sendfileChunk
		}
		// syscall.Sendfile advances off by the bytes written.
		w, e := syscall.Sendfile(int(fd), st.srcFd, &st.off, int(chunk))
		if w > 0 {
			st.sent += int64(w)
			st.remain -= int64(w)
		}
		switch e {
		case nil:
			if w == 0 {
				// EOF before the span ended: the file is shorter than
				// the mapping that produced the run, which cannot
				// happen for an image both sides pin — treat it as a
				// refusal and let the mapping serve the rest.
				st.unsupported = true
				return true
			}
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // wait for writability, then retry
		case syscall.ENOSYS, syscall.EINVAL, syscall.EOPNOTSUPP:
			st.unsupported = true
			return true
		default:
			st.err = e
			return true
		}
	}
	return true
}
