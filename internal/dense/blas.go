package dense

import (
	"fmt"
	"math"
)

// Transpose flags for Gemm/Syrk.
type Transpose bool

const (
	NoTrans Transpose = false
	Trans   Transpose = true
)

// Side selects the triangular operand's side in Trsm.
type Side int

const (
	Left Side = iota
	Right
)

// gemmPackFlops is the dispatch threshold between the naive small-size
// loops and the packed micro-kernel engine: below ~24³ multiply-adds the
// O(m·k + k·n) packing traffic is not amortized.
const gemmPackFlops = 24 * 24 * 24

// opShape returns the rows/cols of op(M).
func opShape(t Transpose, m *Matrix) (int, int) {
	if t == Trans {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

// checkGemmShapes panics unless op(A)·op(B) conforms with C.
func checkGemmShapes(transA, transB Transpose, a, b, c *Matrix) {
	am, ak := opShape(transA, a)
	bk, bn := opShape(transB, b)
	if ak != bk || c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("dense: gemm shape mismatch op(A)=%d×%d op(B)=%d×%d C=%d×%d",
			am, ak, bk, bn, c.Rows, c.Cols))
	}
}

// applyBeta scales C by beta (with the beta == 0 fast path clearing C, so
// NaN/Inf garbage in uninitialized output buffers never propagates).
func applyBeta(beta float64, c *Matrix) {
	if beta == 1 {
		return
	}
	if beta == 0 {
		c.Zero()
		return
	}
	c.Scale(beta)
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C, where op is identity or
// transpose per the flags. Shapes must conform; C must not alias A or B.
// Large products run on the packed register-tiled micro-kernel engine
// (kernel.go/pack.go), parallelized over macro-tiles of C; small ones use
// the retained naive loops (ref.go), whose packing overhead would dominate.
func Gemm(transA, transB Transpose, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	checkGemmShapes(transA, transB, a, b, c)
	am, ak := opShape(transA, a)
	_, bn := opShape(transB, b)
	applyBeta(beta, c)
	if alpha == 0 || am == 0 || bn == 0 || ak == 0 {
		return
	}
	if am*bn*ak >= gemmPackFlops {
		gemmPacked(transA, transB, alpha, a, b, c)
		return
	}
	switch {
	case transA == NoTrans && transB == NoTrans:
		gemmSmallNN(alpha, a, b, c)
	case transA == NoTrans && transB == Trans:
		gemmSmallNT(alpha, a, b, c)
	case transA == Trans && transB == NoTrans:
		gemmSmallTN(alpha, a, b, c)
	default:
		gemmSmallTT(alpha, a, b, c)
	}
}

// MatMul returns op(A)*op(B) as a fresh matrix (convenience for tests and
// non-hot paths).
func MatMul(transA, transB Transpose, a, b *Matrix) *Matrix {
	am, _ := opShape(transA, a)
	_, bn := opShape(transB, b)
	c := New(am, bn)
	Gemm(transA, transB, 1, a, b, 0, c)
	return c
}

// factorPackShape is the dispatch threshold of the right-side Trsm and of
// Potrf between their unblocked loops and the blocked paths on the packed
// engine, compared, like gemmPackFlops, with the product of the call's
// three dimensions (m·n·n for Trsm, n³ for Potrf). Below it, and for Trsm
// with at most NR right-hand rows, the loops are faster: the narrow Gemm
// updates of the blocked Trsm would not leave the small loops, and packing
// is not amortized (b=30 blocks and 6-row arrow panels stay on the loops).
const factorPackShape = 48 * 48 * 48

// Syrk computes the lower triangle of C = alpha*op(A)*op(A)ᵀ + beta*C.
// With trans == NoTrans, op(A) = A (C is a.Rows×a.Rows); with Trans,
// op(A) = Aᵀ (C is a.Cols×a.Cols). Only the lower triangle of C is
// referenced and written. Calls with more than NR rows of op(A) and at
// least gemmPackFlops in n·n·k run one packed pass over the lower triangle
// (syrkPacked); the rest the reference loops (syrkRef).
func Syrk(trans Transpose, alpha float64, a *Matrix, beta float64, c *Matrix) {
	n, k := opShape(trans, a)
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("dense: syrk shape mismatch C=%d×%d want %d×%d", c.Rows, c.Cols, n, n))
	}
	if beta != 1 {
		for i := 0; i < n; i++ {
			row := c.Row(i)
			for j := 0; j <= i; j++ {
				if beta == 0 {
					row[j] = 0
				} else {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 || n == 0 || k == 0 {
		return
	}
	if n > NR && n*n*k >= gemmPackFlops {
		syrkPacked(trans, alpha, a, c)
		return
	}
	syrkRef(trans, alpha, a, c)
}

// trsmBlock is the diagonal-block size of the blocked left-side Trsm; the
// off-diagonal updates become Gemm calls.
const trsmBlock = 64

// trsmPanel is the column-block width of the blocked right-side Trsm:
// narrow enough that the strided triangular loop only sees a small
// diagonal triangle, wide enough (two NR micro-panels) that the Gemm
// update carrying the O(m·n²) work packs well.
const trsmPanel = 16

// Trsm solves a triangular system with a lower-triangular L in place of B:
//
//	Left,  NoTrans: B ← L⁻¹ B
//	Left,  Trans:   B ← L⁻ᵀ B
//	Right, NoTrans: B ← B L⁻¹
//	Right, Trans:   B ← B L⁻ᵀ
//
// Only the lower triangle of L is referenced. Unit-diagonal systems are not
// needed by the BTA solvers and are not supported. The left side is blocked
// at trsmBlock once L is larger: small triangular solves on the diagonal
// blocks, level-3 Gemm updates for everything else. The right side, which
// the factorization calls, runs left-looking over trsmPanel-wide column
// blocks (trsmRight) once B has more than NR rows and m·n·n reaches
// factorPackShape.
func Trsm(side Side, trans Transpose, l, b *Matrix) {
	if l.Rows != l.Cols {
		panic("dense: trsm with non-square triangular factor")
	}
	n := l.Rows
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic(fmt.Sprintf("dense: trsm shape mismatch L=%d×%d B=%d×%d side=%d", l.Rows, l.Cols, b.Rows, b.Cols, side))
	}
	if n == 0 || b.Rows == 0 || b.Cols == 0 {
		return
	}
	if side == Right {
		if b.Rows > NR && b.Rows*n*n >= factorPackShape {
			trsmRight(trans, l, b)
		} else {
			trsmUnb(side, trans, l, b)
		}
		return
	}
	if n <= trsmBlock {
		trsmUnb(side, trans, l, b)
		return
	}
	if trans == NoTrans {
		// Forward over row blocks: solve diag, then eliminate below.
		for k0 := 0; k0 < n; k0 += trsmBlock {
			kb := min(trsmBlock, n-k0)
			bk := b.View(k0, 0, kb, b.Cols)
			trsmUnb(Left, NoTrans, l.View(k0, k0, kb, kb), bk)
			if rem := n - k0 - kb; rem > 0 {
				Gemm(NoTrans, NoTrans, -1, l.View(k0+kb, k0, rem, kb), bk, 1, b.View(k0+kb, 0, rem, b.Cols))
			}
		}
		return
	}
	// Backward over row blocks: eliminate from below, then solve diag.
	k0 := ((n - 1) / trsmBlock) * trsmBlock
	for ; k0 >= 0; k0 -= trsmBlock {
		kb := min(trsmBlock, n-k0)
		bk := b.View(k0, 0, kb, b.Cols)
		if rem := n - k0 - kb; rem > 0 {
			Gemm(Trans, NoTrans, -1, l.View(k0+kb, k0, rem, kb), b.View(k0+kb, 0, rem, b.Cols), 1, bk)
		}
		trsmUnb(Left, Trans, l.View(k0, k0, kb, kb), bk)
	}
}

// trsmRight is the blocked right-side solve, left-looking over column
// blocks of width trsmPanel: each block first takes the Gemm update from
// every block already solved, then the narrow diagonal triangle is solved
// by the unblocked row loop (serially: its work is too small to split).
//
//	Trans   (X·Lᵀ = B): forward,  X_J = (B_J − X_{<J}·L_{J,<J}ᵀ)·L_JJ⁻ᵀ
//	NoTrans (X·L = B):  backward, X_J = (B_J − X_{>J}·L_{>J,J})·L_JJ⁻¹
func trsmRight(trans Transpose, l, b *Matrix) {
	n, m := l.Rows, b.Rows
	if trans == Trans {
		for j0 := 0; j0 < n; j0 += trsmPanel {
			jb := min(trsmPanel, n-j0)
			bj := b.View(0, j0, m, jb)
			if j0 > 0 {
				Gemm(NoTrans, Trans, -1, b.View(0, 0, m, j0), l.View(j0, 0, jb, j0), 1, bj)
			}
			trsmUnbRTRange(0, m, jb, l.Data[j0*l.Stride+j0:], l.Stride, bj.Data, bj.Stride, jb)
		}
		return
	}
	for j0 := ((n - 1) / trsmPanel) * trsmPanel; j0 >= 0; j0 -= trsmPanel {
		jb := min(trsmPanel, n-j0)
		bj := b.View(0, j0, m, jb)
		if rem := n - j0 - jb; rem > 0 {
			Gemm(NoTrans, NoTrans, -1, b.View(0, j0+jb, m, rem), l.View(j0+jb, j0, rem, jb), 1, bj)
		}
		trsmUnbRNRange(0, m, jb, l.Data[j0*l.Stride+j0:], l.Stride, bj.Data, bj.Stride, jb)
	}
}

// trsmUnb is the unblocked triangular solve: the whole solve on small
// shapes, the diagonal blocks of the blocked left side, and the test
// oracle of the blocked paths.
func trsmUnb(side Side, trans Transpose, l, b *Matrix) {
	n := l.Rows
	switch {
	case side == Left && trans == NoTrans:
		// Forward substitution over rows; columns are independent.
		for i := 0; i < n; i++ {
			li := l.Row(i)
			bi := b.Row(i)
			for k := 0; k < i; k++ {
				f := li[k]
				if f == 0 {
					continue
				}
				bk := b.Row(k)
				for j := range bi {
					bi[j] -= f * bk[j]
				}
			}
			inv := 1 / li[i]
			for j := range bi {
				bi[j] *= inv
			}
		}
	case side == Left && trans == Trans:
		// Backward substitution with Lᵀ (upper triangular).
		for i := n - 1; i >= 0; i-- {
			bi := b.Row(i)
			for k := i + 1; k < n; k++ {
				f := l.Data[k*l.Stride+i] // Lᵀ[i,k] = L[k,i]
				if f == 0 {
					continue
				}
				bk := b.Row(k)
				for j := range bi {
					bi[j] -= f * bk[j]
				}
			}
			inv := 1 / l.Data[i*l.Stride+i]
			for j := range bi {
				bi[j] *= inv
			}
		}
	case side == Right && trans == Trans:
		trsmUnbRT(n, l.Data, l.Stride, b.Data, b.Stride, b.Rows, b.Cols)
	default: // Right, NoTrans
		trsmUnbRN(n, l.Data, l.Stride, b.Data, b.Stride, b.Rows, b.Cols)
	}
}

// trsmUnbRT solves x·Lᵀ = b row-wise: x[j] = (b[j] − Σ_{k<j} x[k]·L[j,k]) / L[j,j].
// Operands arrive as raw (data, stride) so the parallel closure captures no
// *Matrix (keeps caller Views stack-allocated); the serial branch avoids
// even the closure allocation.
func trsmUnbRT(n int, lData []float64, lStride int, bData []float64, bStride, bRows, bCols int) {
	if MaxWorkers() <= 1 || bRows < parallelRows {
		trsmUnbRTRange(0, bRows, n, lData, lStride, bData, bStride, bCols)
		return
	}
	parFor(bRows, func(lo, hi int) {
		trsmUnbRTRange(lo, hi, n, lData, lStride, bData, bStride, bCols)
	})
}

func trsmUnbRTRange(lo, hi, n int, lData []float64, lStride int, bData []float64, bStride, bCols int) {
	i := lo
	// Four rows at a time: their dot products are independent chains that
	// share each load of L, which hides the add latency bounding one chain.
	// Every row still sees the same operations in the same order.
	for ; i+4 <= hi; i += 4 {
		x0 := bData[i*bStride : i*bStride+bCols]
		x1 := bData[(i+1)*bStride : (i+1)*bStride+bCols]
		x2 := bData[(i+2)*bStride : (i+2)*bStride+bCols]
		x3 := bData[(i+3)*bStride : (i+3)*bStride+bCols]
		for j := 0; j < n; j++ {
			lj := lData[j*lStride : j*lStride+j]
			y0, y1, y2, y3 := x0[:len(lj)], x1[:len(lj)], x2[:len(lj)], x3[:len(lj)]
			s0, s1, s2, s3 := x0[j], x1[j], x2[j], x3[j]
			for k, v := range lj {
				s0 -= y0[k] * v
				s1 -= y1[k] * v
				s2 -= y2[k] * v
				s3 -= y3[k] * v
			}
			d := lData[j*lStride+j]
			x0[j], x1[j], x2[j], x3[j] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; i < hi; i++ {
		x := bData[i*bStride : i*bStride+bCols]
		for j := 0; j < n; j++ {
			lj := lData[j*lStride : j*lStride+j+1]
			s := x[j]
			for k := 0; k < j; k++ {
				s -= x[k] * lj[k]
			}
			x[j] = s / lj[j]
		}
	}
}

// trsmUnbRN solves x·L = b row-wise, backward over j using column j of L
// below the diagonal.
func trsmUnbRN(n int, lData []float64, lStride int, bData []float64, bStride, bRows, bCols int) {
	if MaxWorkers() <= 1 || bRows < parallelRows {
		trsmUnbRNRange(0, bRows, n, lData, lStride, bData, bStride, bCols)
		return
	}
	parFor(bRows, func(lo, hi int) {
		trsmUnbRNRange(lo, hi, n, lData, lStride, bData, bStride, bCols)
	})
}

func trsmUnbRNRange(lo, hi, n int, lData []float64, lStride int, bData []float64, bStride, bCols int) {
	i := lo
	// Four rows at a time, as in trsmUnbRTRange: each strided load of L
	// feeds four independent chains.
	for ; i+4 <= hi; i += 4 {
		x0 := bData[i*bStride : i*bStride+bCols]
		x1 := bData[(i+1)*bStride : (i+1)*bStride+bCols]
		x2 := bData[(i+2)*bStride : (i+2)*bStride+bCols]
		x3 := bData[(i+3)*bStride : (i+3)*bStride+bCols]
		for j := n - 1; j >= 0; j-- {
			y0 := x0[j+1 : n]
			y1, y2, y3 := x1[j+1:][:len(y0)], x2[j+1:][:len(y0)], x3[j+1:][:len(y0)]
			s0, s1, s2, s3 := x0[j], x1[j], x2[j], x3[j]
			for k := range y0 {
				v := lData[(j+1+k)*lStride+j]
				s0 -= y0[k] * v
				s1 -= y1[k] * v
				s2 -= y2[k] * v
				s3 -= y3[k] * v
			}
			d := lData[j*lStride+j]
			x0[j], x1[j], x2[j], x3[j] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; i < hi; i++ {
		x := bData[i*bStride : i*bStride+bCols]
		for j := n - 1; j >= 0; j-- {
			s := x[j]
			for k := j + 1; k < n; k++ {
				s -= x[k] * lData[k*lStride+j]
			}
			x[j] = s / lData[j*lStride+j]
		}
	}
}

// Trmm computes B ← op(L)·B (side Left) or B ← B·op(L) (side Right) for a
// lower-triangular L, in place.
func Trmm(side Side, trans Transpose, l, b *Matrix) {
	n := l.Rows
	if l.Rows != l.Cols {
		panic("dense: trmm with non-square triangular factor")
	}
	switch {
	case side == Left && trans == NoTrans:
		if b.Rows != n {
			panic("dense: trmm shape mismatch")
		}
		for i := n - 1; i >= 0; i-- {
			li := l.Row(i)
			bi := b.Row(i)
			for j := range bi {
				bi[j] *= li[i]
			}
			for k := 0; k < i; k++ {
				f := li[k]
				if f == 0 {
					continue
				}
				bk := b.Row(k)
				for j := range bi {
					bi[j] += f * bk[j]
				}
			}
		}
	case side == Left && trans == Trans:
		if b.Rows != n {
			panic("dense: trmm shape mismatch")
		}
		for i := 0; i < n; i++ {
			bi := b.Row(i)
			for j := range bi {
				bi[j] *= l.Data[i*l.Stride+i]
			}
			for k := i + 1; k < n; k++ {
				f := l.Data[k*l.Stride+i]
				if f == 0 {
					continue
				}
				bk := b.Row(k)
				for j := range bi {
					bi[j] += f * bk[j]
				}
			}
		}
	case side == Right && trans == NoTrans:
		if b.Cols != n {
			panic("dense: trmm shape mismatch")
		}
		parFor(b.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := b.Row(i)
				for j := 0; j < n; j++ {
					var s float64
					for k := j; k < n; k++ {
						s += x[k] * l.Data[k*l.Stride+j]
					}
					x[j] = s
				}
			}
		})
	default: // Right, Trans: B ← B·Lᵀ
		if b.Cols != n {
			panic("dense: trmm shape mismatch")
		}
		parFor(b.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := b.Row(i)
				for j := n - 1; j >= 0; j-- {
					lj := l.Row(j)
					var s float64
					for k := 0; k <= j; k++ {
						s += x[k] * lj[k]
					}
					x[j] = s
				}
			}
		})
	}
}

// Gemv computes y = alpha*op(A)*x + beta*y.
func Gemv(trans Transpose, alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	m, n := a.Rows, a.Cols
	if trans == Trans {
		m, n = n, m
	}
	if len(x) < n || len(y) < m {
		panic(fmt.Sprintf("dense: gemv shape mismatch A=%d×%d len(x)=%d len(y)=%d trans=%v",
			a.Rows, a.Cols, len(x), len(y), trans))
	}
	if beta != 1 {
		for i := 0; i < m; i++ {
			y[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	if trans == NoTrans {
		aData, aStride, aCols := a.Data, a.Stride, a.Cols
		if MaxWorkers() <= 1 || m < parallelRows {
			gemvRows(0, m, alpha, aData, aStride, aCols, x, y)
			return
		}
		parFor(m, func(lo, hi int) {
			gemvRows(lo, hi, alpha, aData, aStride, aCols, x, y)
		})
		return
	}
	for k := 0; k < a.Rows; k++ {
		f := alpha * x[k]
		if f == 0 {
			continue
		}
		row := a.Row(k)
		for j, v := range row {
			y[j] += f * v
		}
	}
}

// gemvRows accumulates y[i] += alpha·(A row i · x) over the row range.
func gemvRows(lo, hi int, alpha float64, aData []float64, aStride, aCols int, x, y []float64) {
	for i := lo; i < hi; i++ {
		row := aData[i*aStride : i*aStride+aCols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] += alpha * s
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dense: dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("dense: axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
