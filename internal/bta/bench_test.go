package bta

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// TestRefactorizeMatchesFactorize: the workspace-reusing path must produce
// the same factor as the allocating one.
func TestRefactorizeMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randBTA(rng, 5, 24, 3)
	want, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFactor(5, 24, 3)
	// Run twice to confirm refills do not depend on prior contents.
	for pass := 0; pass < 2; pass++ {
		if err := f.Refactorize(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m.N; i++ {
		if !f.Diag[i].Equal(want.Diag[i], 1e-12) {
			t.Fatalf("diag block %d differs", i)
		}
		if i < m.N-1 && !f.Lower[i].Equal(want.Lower[i], 1e-12) {
			t.Fatalf("lower block %d differs", i)
		}
		if m.A > 0 && !f.Arrow[i].Equal(want.Arrow[i], 1e-12) {
			t.Fatalf("arrow block %d differs", i)
		}
	}
	if m.A > 0 && !f.Tip.Equal(want.Tip, 1e-12) {
		t.Fatal("tip differs")
	}
}

// TestRefactorizeShapeMismatch: refilling a factor of a different shape is
// an error, not a corruption.
func TestRefactorizeShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randBTA(rng, 4, 8, 2)
	f := NewFactor(4, 8, 3)
	if err := f.Refactorize(m); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

// TestRefactorizeSolveZeroAlloc is the acceptance gate of the
// zero-allocation hot path: after warm-up, a full Refactorize + Solve +
// LogDet cycle — one INLA θ-evaluation's worth of solver work — touches no
// fresh heap. b is chosen large enough that the blocked kernels route
// through the packed GEMM engine and its buffer pools.
func TestRefactorizeSolveZeroAlloc(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	// b=96 runs the blocked kernels on mid-size blocks; b=144, a=6 is the
	// fit-ap1 shape, whose blocks take the packed Syrk, the blocked
	// right-side Trsm and the blocked Potrf.
	for _, sh := range []struct{ n, b, a int }{{4, 96, 4}, {8, 144, 6}} {
		t.Run(fmt.Sprintf("n=%d,b=%d,a=%d", sh.n, sh.b, sh.a), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			m := randBTA(rng, sh.n, sh.b, sh.a)
			f := NewFactor(sh.n, sh.b, sh.a)
			rhs0 := randVec(rng, m.Dim())
			rhs := make([]float64, m.Dim())
			// Warm-up: fills the factor storage and the dense packing pools.
			if err := f.Refactorize(m); err != nil {
				t.Fatal(err)
			}
			copy(rhs, rhs0)
			f.Solve(rhs)
			allocs := testing.AllocsPerRun(10, func() {
				if err := f.Refactorize(m); err != nil {
					t.Fatal(err)
				}
				copy(rhs, rhs0)
				f.Solve(rhs)
				_ = f.LogDet()
			})
			if allocs != 0 {
				t.Fatalf("Refactorize+Solve cycle allocates %.1f objects per run in steady state, want 0", allocs)
			}
		})
	}
}

// benchPOBTAF measures the sequential factorization wall-time at a
// paper-like shape, with and without workspace reuse.
func benchPOBTAF(b *testing.B, reuse bool) {
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(14))
	m := randBTA(rng, 16, 128, 8)
	f := NewFactor(16, 128, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reuse {
			if err := f.Refactorize(m); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := Factorize(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPOBTAFRefactorize(b *testing.B) { benchPOBTAF(b, true) }
func BenchmarkPOBTAFFactorize(b *testing.B)   { benchPOBTAF(b, false) }
