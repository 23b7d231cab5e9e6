//go:build !race

package race

// Enabled reports whether the build has the race detector.
const Enabled = false
