package bench

import (
	"testing"

	"repro/internal/race"
)

// TestDecryptMicrobench runs the E10 decrypt table on its own (the full
// experiment smoke covers it too; this isolates the gated numbers).
func TestDecryptMicrobench(t *testing.T) {
	rec := NewRecorder()
	tab := e10Decrypt(rec)
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 run lengths, got %d", len(tab.Rows))
	}
	var allocs, ratio float64
	for _, m := range rec.Metrics() {
		t.Logf("%s = %.3f %s", m.Name, m.Value, m.Unit)
		switch m.Name {
		case "decrypt_allocs_per_block":
			allocs = m.Value
		case "batch_vs_serial_decrypt":
			ratio = m.Value
		}
	}
	if allocs > 1.0 && !race.Enabled {
		t.Errorf("decrypt_allocs_per_block = %.3f, want <= 1 (amortized path must not allocate per block)", allocs)
	}
	if ratio < 1.0 {
		t.Errorf("batch_vs_serial_decrypt = %.2fx, want >= 1 (batched path slower than per-call setup)", ratio)
	}
}
