// Package mem provides logical memory accounting for components that must
// operate inside the secure working memory of a Secure Operating
// Environment (SOE).
//
// The paper's target hardware (an Axalto e-gate smart card) exposes roughly
// 1 KB of RAM to on-board applications. The streaming access-control
// evaluator is designed around that ceiling, and the simulator enforces it:
// every data structure living inside the simulated card charges its size to
// a Gauge, and exceeding the budget is a hard error, exactly as an
// allocation failure would be on the card.
package mem

import "fmt"

// ErrBudget is returned (wrapped) when an allocation would exceed the
// configured budget.
var ErrBudget = fmt.Errorf("mem: secure memory budget exceeded")

// Gauge tracks logical allocations against an optional budget.
type Gauge interface {
	// Alloc charges n bytes. It returns an error wrapping ErrBudget if the
	// charge would exceed the budget.
	Alloc(n int) error
	// Free releases n bytes previously charged with Alloc.
	Free(n int)
	// Peak reports the high-water mark of charged bytes.
	Peak() int
}

// Tracking is a Gauge with an enforced budget. A Budget of 0 means
// "unlimited" (tracking only). The zero value is an unlimited gauge.
type Tracking struct {
	Budget int

	inUse int
	peak  int
}

// NewTracking returns a Gauge enforcing the given budget in bytes.
// budget <= 0 disables enforcement but still tracks usage.
func NewTracking(budget int) *Tracking {
	return &Tracking{Budget: budget}
}

// Alloc implements Gauge.
func (t *Tracking) Alloc(n int) error {
	if n < 0 {
		return fmt.Errorf("mem: negative allocation %d", n)
	}
	if t.Budget > 0 && t.inUse+n > t.Budget {
		return fmt.Errorf("%w: in use %d + request %d > budget %d",
			ErrBudget, t.inUse, n, t.Budget)
	}
	t.inUse += n
	if t.inUse > t.peak {
		t.peak = t.inUse
	}
	return nil
}

// Free implements Gauge.
func (t *Tracking) Free(n int) {
	t.inUse -= n
	if t.inUse < 0 {
		t.inUse = 0
	}
}

// InUse reports the bytes currently charged.
func (t *Tracking) InUse() int { return t.inUse }

// Peak implements Gauge.
func (t *Tracking) Peak() int { return t.peak }

// Scope is a Gauge that forwards to a parent gauge while tracking its own
// net allocation and peak. Closing the scope releases whatever it still
// holds — how a card session returns its working memory when it ends.
type Scope struct {
	Parent Gauge

	net  int
	peak int
}

// Alloc implements Gauge.
func (s *Scope) Alloc(n int) error {
	if err := s.Parent.Alloc(n); err != nil {
		return err
	}
	s.net += n
	if s.net > s.peak {
		s.peak = s.net
	}
	return nil
}

// Free implements Gauge.
func (s *Scope) Free(n int) {
	s.Parent.Free(n)
	s.net -= n
	if s.net < 0 {
		s.net = 0
	}
}

// Peak implements Gauge.
func (s *Scope) Peak() int { return s.peak }

// Close releases everything the scope still holds.
func (s *Scope) Close() {
	if s.net > 0 {
		s.Parent.Free(s.net)
		s.net = 0
	}
}

// Nop is a Gauge that tracks nothing and never fails. It is used when the
// evaluator runs outside a simulated SOE (plain library use).
type Nop struct{}

// Alloc implements Gauge.
func (Nop) Alloc(int) error { return nil }

// Free implements Gauge.
func (Nop) Free(int) {}

// Peak implements Gauge.
func (Nop) Peak() int { return 0 }
