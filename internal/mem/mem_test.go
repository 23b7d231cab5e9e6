package mem

import (
	"errors"
	"testing"
)

func TestTrackingBudget(t *testing.T) {
	g := NewTracking(100)
	if err := g.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := g.Alloc(40); err != nil {
		t.Fatal(err)
	}
	if err := g.Alloc(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-budget alloc must fail with ErrBudget, got %v", err)
	}
	if g.InUse() != 100 || g.Peak() != 100 {
		t.Errorf("InUse=%d Peak=%d, want 100/100", g.InUse(), g.Peak())
	}
	g.Free(50)
	if g.InUse() != 50 {
		t.Errorf("InUse after free = %d", g.InUse())
	}
	if g.Peak() != 100 {
		t.Errorf("Peak must not shrink, got %d", g.Peak())
	}
	if err := g.Alloc(50); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
}

func TestTrackingUnlimited(t *testing.T) {
	g := NewTracking(0)
	if err := g.Alloc(1 << 30); err != nil {
		t.Fatalf("unlimited gauge must not fail: %v", err)
	}
	if g.Peak() != 1<<30 {
		t.Error("unlimited gauge must still track")
	}
}

func TestTrackingNegativeAlloc(t *testing.T) {
	if err := NewTracking(10).Alloc(-1); err == nil {
		t.Error("negative alloc must fail")
	}
}

func TestTrackingOverFree(t *testing.T) {
	g := NewTracking(10)
	_ = g.Alloc(5)
	g.Free(50)
	if g.InUse() != 0 {
		t.Errorf("over-free must clamp to zero, got %d", g.InUse())
	}
}

func TestScope(t *testing.T) {
	parent := NewTracking(100)
	s := &Scope{Parent: parent}
	if err := s.Alloc(30); err != nil {
		t.Fatal(err)
	}
	if parent.InUse() != 30 || s.net != 30 {
		t.Errorf("parent=%d scope=%d, want 30/30", parent.InUse(), s.net)
	}
	s.Free(10)
	if s.net != 20 || s.Peak() != 30 {
		t.Errorf("scope InUse=%d Peak=%d, want 20/30", s.net, s.Peak())
	}
	s.Close()
	if parent.InUse() != 0 {
		t.Errorf("Close must release the scope's holdings, parent has %d", parent.InUse())
	}
	// Closing twice is harmless.
	s.Close()
	if parent.InUse() != 0 {
		t.Error("double Close corrupted accounting")
	}
}

func TestScopePropagatesBudget(t *testing.T) {
	parent := NewTracking(10)
	s := &Scope{Parent: parent}
	if err := s.Alloc(11); !errors.Is(err, ErrBudget) {
		t.Errorf("scope must surface the parent's budget, got %v", err)
	}
	if s.net != 0 {
		t.Error("failed alloc must not be counted")
	}
}

func TestTwoScopesShareParent(t *testing.T) {
	parent := NewTracking(100)
	a, b := &Scope{Parent: parent}, &Scope{Parent: parent}
	_ = a.Alloc(60)
	if err := b.Alloc(60); !errors.Is(err, ErrBudget) {
		t.Error("scopes must compete for the same budget")
	}
	a.Close()
	if err := b.Alloc(60); err != nil {
		t.Errorf("budget must free up after a scope closes: %v", err)
	}
}

func TestNop(t *testing.T) {
	var g Nop
	if err := g.Alloc(1 << 40); err != nil {
		t.Fatal("Nop must never fail")
	}
	g.Free(5)
	if g.Peak() != 0 {
		t.Error("Nop must report zero")
	}
}
