//go:build !unix || nommap

package dsp

// Portable fallback: no mapping support. FileStore serves everything
// from the heap-resident MemStore, loading each checkpoint image's body
// at open — the image format (v3 body + index footer) is the one every
// platform writes, so a store directory moves freely between builds.

const mmapOn = false

func mapFile(path string) (*mmapRegion, error) { return nil, errMmapUnsupported }

func (r *mmapRegion) unmap() error { return nil }
