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

// sendfileTo ships n bytes of src starting at off into the socket
// behind rc, resuming short writes and EAGAIN via the runtime poller.
// unsupported reports a kernel refusal (ENOSYS/EINVAL/EOPNOTSUPP) that
// should latch the connection back to writev — sent bytes are already
// on the wire either way, so the caller resumes the fallback at the
// exact byte offset. A non-nil err is a dead connection.
func sendfileTo(rc syscall.RawConn, src *os.File, off, n int64) (sent int64, unsupported bool, err error) {
	if rc == nil || src == nil {
		return 0, true, nil
	}
	srcFd := int(src.Fd())
	remain := n
	var serr error
	werr := rc.Write(func(fd uintptr) bool {
		for remain > 0 {
			chunk := remain
			if chunk > sendfileChunk {
				chunk = sendfileChunk
			}
			// syscall.Sendfile advances off by the bytes written.
			w, e := syscall.Sendfile(int(fd), srcFd, &off, int(chunk))
			if w > 0 {
				sent += int64(w)
				remain -= int64(w)
			}
			switch e {
			case nil:
				if w == 0 {
					// EOF before the span ended: the file is shorter than
					// the mapping that produced the run, which cannot
					// happen for an image both sides pin — treat it as a
					// refusal and let the mapping serve the rest.
					unsupported = true
					return true
				}
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // wait for writability, then retry
			case syscall.ENOSYS, syscall.EINVAL, syscall.EOPNOTSUPP:
				unsupported = true
				return true
			default:
				serr = e
				return true
			}
		}
		return true
	})
	if serr == nil {
		serr = werr
	}
	if serr != nil {
		return sent, false, &os.SyscallError{Syscall: "sendfile", Err: serr}
	}
	return sent, unsupported, nil
}
