//go:build race

// Package race tells tests whether the race detector is compiled in.
// Under it sync.Pool drops a share of what is put back, on purpose, so
// an allocation count that relies on a warm pool means nothing there:
// such assertions are skipped, while the rest of their tests still run.
package race

// Enabled reports whether the build has the race detector.
const Enabled = true
