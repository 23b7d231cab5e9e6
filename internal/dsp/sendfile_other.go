//go:build !linux || nosendfile

package dsp

// Portable fallback: no sendfile. The store writes the same v3 images
// and resolves no file runs, so every batched read travels the ordinary
// writev path — byte for byte the same frame. The nosendfile build tag
// exists only so CI can compile and test this path on linux. A store
// directory moves freely between builds.

import (
	"os"
	"syscall"
)

const sendfileSupported = false

type sendfileState struct{}

func (*sendfileState) send(rc syscall.RawConn, src *os.File, off, n int64) (int64, bool, error) {
	return 0, true, nil
}
