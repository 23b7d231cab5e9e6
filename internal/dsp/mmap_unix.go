//go:build unix && !nommap

package dsp

import (
	"os"
	"syscall"
)

// mmapOn selects the tiered read path: checkpoint-resident blocks are
// served as views into mapped images, everything newer from heap. The
// nommap build tag exists only so CI can compile and test the
// portable fallback on a platform that has mmap.
const mmapOn = true

// mapFile maps path read-only in its entirety. The returned region
// holds its single owner reference; an empty file is reported as
// errMmapEmpty (mmap of length zero is invalid) and callers fall back
// to the heap loader's handling. The file stays open for the region's
// lifetime — the sendfile tier serves from the same inode the mapping
// reads, so both retire together when the last pin drops.
func mapFile(path string) (*mmapRegion, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		_ = f.Close()
		return nil, errMmapEmpty
	}
	if st.Size() != int64(int(st.Size())) {
		_ = f.Close()
		return nil, errMmapUnsupported // larger than the address space
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	r := &mmapRegion{data: data, f: f}
	r.refs.Store(1)
	return r, nil
}

func (r *mmapRegion) unmap() error {
	data := r.data
	r.data = nil
	if r.f != nil {
		_ = r.f.Close()
		r.f = nil
	}
	return syscall.Munmap(data)
}
