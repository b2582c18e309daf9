package dense

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Oracle tests of the factorization kernels' blocked paths (packed
// lower-triangle Syrk, GEMM-blocked right-side Trsm, right-looking Potrf)
// against the unblocked loops they replace on large shapes: syrkRef,
// trsmUnb and potf2.

// maxRelDiff returns max|got−want| / max|want| over the lower triangle
// (lower) or all of the two matrices.
func maxRelDiff(got, want *Matrix, lower bool) float64 {
	var diff, scale float64
	for i := 0; i < want.Rows; i++ {
		cols := want.Cols
		if lower {
			cols = i + 1
		}
		for j := 0; j < cols; j++ {
			diff = math.Max(diff, math.Abs(got.At(i, j)-want.At(i, j)))
			scale = math.Max(scale, math.Abs(want.At(i, j)))
		}
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// stridedView returns an r×c view into a larger random matrix, so the
// operand's stride differs from its width and its data does not start at
// the backing array's origin.
func stridedView(rng *rand.Rand, r, c int) *Matrix {
	return randMat(rng, r+3, c+5).View(2, 3, r, c)
}

// withWorkers runs f once single-threaded and once with four kernel
// workers, so the macro-tile fan-out of the packed paths runs too.
func withWorkers(t *testing.T, f func(t *testing.T)) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			prev := SetMaxWorkers(w)
			defer SetMaxWorkers(prev)
			f(t)
		})
	}
}

// randLowerWellCond returns a lower-triangular n×n matrix whose
// off-diagonal entries are scaled by 1/√n (randLower's are not), so solves
// with it stay well conditioned at the orders the blocked paths run.
func randLowerWellCond(rng *rand.Rand, n int) *Matrix {
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, rng.NormFloat64()/math.Sqrt(float64(n)))
		}
		l.Set(i, i, 1+rng.Float64())
	}
	return l
}

// TestSyrkPackedVsReference: the packed lower-triangle pass against
// syrkRef, on orders straddling MR, NR, the Trsm panel, mcBlock and ncBlock
// (past which column panels start below the first macro-tile), depths
// straddling kcBlock, both transposes, strided operands and beta ∈ {0, 1,
// other}. The strict upper triangle of C must stay untouched.
func TestSyrkPackedVsReference(t *testing.T) {
	withWorkers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, n := range []int{1, 3, MR, 5, NR, 9, trsmPanel, 17, 33, mcBlock - 1, mcBlock, mcBlock + 1, 144, ncBlock + 9} {
			ks := []int{1, 6, 37, kcBlock, kcBlock + 1}
			if n > ncBlock {
				ks = ks[2:3] // the depth cases are covered by smaller orders
			}
			for _, k := range ks {
				for _, trans := range []Transpose{NoTrans, Trans} {
					for _, beta := range []float64{0, 1, -0.5} {
						var a *Matrix
						if trans == NoTrans {
							a = stridedView(rng, n, k)
						} else {
							a = stridedView(rng, k, n)
						}
						c0 := stridedView(rng, n, n)
						want := c0.Clone()
						applySyrkBeta(beta, want)
						syrkRef(trans, -1.5, a, want)
						for _, path := range []string{"packed", "Syrk"} {
							c := c0.Clone()
							if path == "packed" {
								applySyrkBeta(beta, c)
								syrkPacked(trans, -1.5, a, c)
							} else {
								Syrk(trans, -1.5, a, beta, c)
							}
							if d := maxRelDiff(c, want, true); d > 1e-12 {
								t.Fatalf("%s n=%d k=%d trans=%v beta=%v: rel diff %.3g", path, n, k, trans, beta, d)
							}
							for i := 0; i < n; i++ {
								for j := i + 1; j < n; j++ {
									if c.At(i, j) != c0.At(i, j) {
										t.Fatalf("%s n=%d k=%d: upper element (%d,%d) written", path, n, k, i, j)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// applySyrkBeta scales the lower triangle of c by beta the way Syrk does.
func applySyrkBeta(beta float64, c *Matrix) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j <= i; j++ {
			if beta == 0 {
				c.Set(i, j, 0)
			} else {
				c.Set(i, j, beta*c.At(i, j))
			}
		}
	}
}

// TestTrsmRightBlockedVsUnblocked: the left-looking blocked right-side
// solve against trsmUnb for both transposes, on orders straddling the
// column panel, mcBlock and kcBlock, right-hand sides of 1 and 6 rows (the
// arrow) up to more than one macro-tile, and strided operands.
func TestTrsmRightBlockedVsUnblocked(t *testing.T) {
	withWorkers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for _, n := range []int{trsmPanel - 1, trsmPanel, trsmPanel + 1, 33, 144, kcBlock + 3} {
			lBig := randLowerWellCond(rng, n+4)
			l := lBig.View(3, 2, n, n) // strided; its own diagonal block stays dominant
			for i := 0; i < n; i++ {
				l.Set(i, i, 1+rng.Float64())
			}
			for _, m := range []int{1, 6, NR + 1, 31, mcBlock + 5} {
				for _, trans := range []Transpose{Trans, NoTrans} {
					b0 := stridedView(rng, m, n)
					want := b0.Clone()
					trsmUnb(Right, trans, l, want)
					for _, path := range []string{"blocked", "Trsm"} {
						b := b0.Clone()
						if path == "blocked" {
							trsmRight(trans, l, b)
						} else {
							Trsm(Right, trans, l, b)
						}
						if d := maxRelDiff(b, want, false); d > 1e-12 {
							t.Fatalf("%s n=%d m=%d trans=%v: rel diff %.3g", path, n, m, trans, d)
						}
					}
				}
			}
		}
	})
}

// TestTrsmUnbRowInterleaveExact: the unblocked right-side loops solve four
// rows at a time with the same operation order as one row at a time, so
// every row count (the 1–3-row tail included) gives the bitwise result of
// solving each row on its own.
func TestTrsmUnbRowInterleaveExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 37
	l := randLowerWellCond(rng, n)
	for _, trans := range []Transpose{Trans, NoTrans} {
		for m := 1; m <= 9; m++ {
			b := randMat(rng, m, n)
			want := b.Clone()
			for i := 0; i < m; i++ {
				trsmUnb(Right, trans, l, want.View(i, 0, 1, n))
			}
			trsmUnb(Right, trans, l, b)
			for i := range b.Data {
				if b.Data[i] != want.Data[i] {
					t.Fatalf("trans=%v m=%d: element %d differs from the one-row solve", trans, m, i)
				}
			}
		}
	}
}

// TestPotf2RowInterleaveExact: potf2 updates four rows of a column at a
// time in the operation order of the textbook column Cholesky below, so
// its factor is bitwise that of the textbook loop at every order.
func TestPotf2RowInterleaveExact(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for n := 1; n <= 11; n++ {
		spd := randSPD(rng, n)
		want := spd.Clone()
		for j := 0; j < n; j++ {
			s := want.At(j, j)
			for k := 0; k < j; k++ {
				s -= want.At(j, k) * want.At(j, k)
			}
			d := math.Sqrt(s)
			want.Set(j, j, d)
			inv := 1 / d
			for i := j + 1; i < n; i++ {
				s := want.At(i, j)
				for k := 0; k < j; k++ {
					s -= want.At(i, k) * want.At(j, k)
				}
				want.Set(i, j, s*inv)
			}
		}
		got := spd.Clone()
		if err := potf2(got); err != nil {
			t.Fatal(err)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("n=%d: element %d differs from the textbook loop", n, i)
			}
		}
	}
}

// TestPotrfBlockedVsPotf2: the right-looking blocked Cholesky against
// potf2 on orders either side of the dispatch threshold, straddling the
// panel width and mcBlock, on strided storage.
func TestPotrfBlockedVsPotf2(t *testing.T) {
	withWorkers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		for _, n := range []int{47, 48, 49, 3*potrfPanel + 1, mcBlock + potrfPanel, 144, kcBlock + 7} {
			spd := randSPD(rng, n)
			want := spd.Clone()
			if err := potf2(want); err != nil {
				t.Fatal(err)
			}
			a := stridedView(rng, n, n)
			a.CopyFrom(spd)
			if err := Potrf(a); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if d := maxRelDiff(a, want, true); d > 1e-12 {
				t.Fatalf("n=%d: rel diff %.3g", n, d)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if a.At(i, j) != spd.At(i, j) {
						t.Fatalf("n=%d: upper element (%d,%d) written", n, i, j)
					}
				}
			}
		}
	})
}

// TestPotrfIndefinitePivotThenReuse: a negative pivot in the first, a
// middle and the last panel fails the blocked Cholesky with
// ErrNotPositiveDefinite, and the same storage then refactorizes an SPD
// matrix exactly like fresh storage does.
func TestPotrfIndefinitePivotThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 144
	spd := randSPD(rng, n)
	want := spd.Clone()
	if err := Potrf(want); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, n / 2, n - 1} {
		bad := spd.Clone()
		// A negative diagonal entry makes the leading (p+1)×(p+1) block
		// indefinite while the leading p×p block stays SPD, so the
		// factorization fails exactly at pivot p.
		bad.Set(p, p, -1)
		w := stridedView(rng, n, n)
		w.CopyFrom(bad)
		if err := Potrf(w); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("pivot %d: err = %v, want ErrNotPositiveDefinite", p, err)
		}
		w.CopyFrom(spd)
		if err := Potrf(w); err != nil {
			t.Fatalf("pivot %d: refactorization after failure: %v", p, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if w.At(i, j) != want.At(i, j) {
					t.Fatalf("pivot %d: reused storage factor differs at (%d,%d)", p, i, j)
				}
			}
		}
	}
}
