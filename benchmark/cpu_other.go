//go:build !unix

package main

import "time"

// processCPU is not measured on this platform; cpu_ms_per_op reads 0.
func processCPU() time.Duration { return 0 }
