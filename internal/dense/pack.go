package dense

import "sync"

// Cache blocking parameters of the packed GEMM driver (GotoBLAS scheme):
// op(B) is packed once per (kc×nc) panel and streamed from L2/L3; each
// worker packs its own (mc×kc) panel of op(A) into L2; the micro-kernel
// then runs MR×NR register tiles over the packed panels.
const (
	kcBlock = 256 // depth of one packed panel pair (L1 residency of the micro-panels)
	mcBlock = 128 // rows of op(A) per packed A panel (multiple of MR)
	ncBlock = 512 // cols of op(B) per packed B panel (multiple of NR)
)

// Packing buffers are recycled through sync.Pools so steady-state GEMM
// calls perform zero heap allocations. A buffer is sized to the panels of
// the call that allocates it rather than to the blocking maximum (kc·nc
// elements, 1 MiB, for B): a drawn buffer too small for the call is
// dropped and replaced, so pooled buffers grow to the largest panels the
// process packs, and a process whose blocks are small (b=30) holds small
// buffers. The A buffer carries MR·NR extra leading elements used as the
// edge-tile scratch (kept out of the stack so the indirect micro-kernel
// call cannot force a heap escape per call).
var packAPool, packBPool sync.Pool

// getPackBuf returns a buffer of at least n elements from the pool.
func getPackBuf(p *sync.Pool, n int) *[]float64 {
	if bp, ok := p.Get().(*[]float64); ok && len(*bp) >= n {
		return bp
	}
	s := make([]float64, n)
	return &s
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// packPanelsA packs op(A)[i0:i0+mcb, p0:p0+kcb] into MR-interleaved
// micro-panels: panel ip holds rows [ip,ip+MR) k-major, so the micro-kernel
// reads MR consecutive values per k step. Rows beyond mcb are zero-padded;
// alpha is folded in here so the kernel needs no epilogue scaling.
// A is passed as raw (data, stride) so parallel closures upstream never
// capture a *Matrix — keeping caller-side Views stack-allocated.
func packPanelsA(dst []float64, trans Transpose, aData []float64, aStride, i0, p0, mcb, kcb int, alpha float64) {
	for ip := 0; ip < mcb; ip += MR {
		h := MR
		if ip+h > mcb {
			h = mcb - ip
		}
		panel := dst[(ip/MR)*MR*kcb:]
		if trans == NoTrans {
			for r := 0; r < h; r++ {
				src := aData[(i0+ip+r)*aStride+p0 : (i0+ip+r)*aStride+p0+kcb]
				for p, v := range src {
					panel[p*MR+r] = alpha * v
				}
			}
		} else {
			for p := 0; p < kcb; p++ {
				src := aData[(p0+p)*aStride+i0+ip : (p0+p)*aStride+i0+ip+h]
				d := panel[p*MR : p*MR+MR]
				for r, v := range src {
					d[r] = alpha * v
				}
			}
		}
		if h < MR {
			for p := 0; p < kcb; p++ {
				d := panel[p*MR : p*MR+MR]
				for r := h; r < MR; r++ {
					d[r] = 0
				}
			}
		}
	}
}

// packPanelsB packs op(B)[p0:p0+kcb, j0:j0+ncb] into NR-interleaved
// micro-panels: panel jp holds columns [jp,jp+NR) k-major. Columns beyond
// ncb are zero-padded.
func packPanelsB(dst []float64, trans Transpose, bData []float64, bStride, p0, j0, kcb, ncb int) {
	for jp := 0; jp < ncb; jp += NR {
		w := NR
		if jp+w > ncb {
			w = ncb - jp
		}
		panel := dst[(jp/NR)*NR*kcb:]
		if trans == NoTrans {
			for p := 0; p < kcb; p++ {
				src := bData[(p0+p)*bStride+j0+jp : (p0+p)*bStride+j0+jp+w]
				d := panel[p*NR : p*NR+NR]
				copy(d, src)
				for j := w; j < NR; j++ {
					d[j] = 0
				}
			}
		} else {
			if w < NR {
				for p := 0; p < kcb; p++ {
					d := panel[p*NR+w : p*NR+NR]
					for j := range d {
						d[j] = 0
					}
				}
			}
			for j := 0; j < w; j++ {
				src := bData[(j0+jp+j)*bStride+p0 : (j0+jp+j)*bStride+p0+kcb]
				for p, v := range src {
					panel[p*NR+j] = v
				}
			}
		}
	}
}

// macroKernel sweeps the register tiles of one (mcb×ncb) block of C over
// the packed panels. cData points at the (0,0) element of the C block, with
// row stride ldc. Full MR×NR tiles hit C directly; edge tiles go through
// the zero-padded scratch tile and only the valid region is accumulated.
//
// With lower set, only the lower triangle of a symmetric C is accumulated:
// the block's first row sits d rows below the diagonal element of its first
// column (d = ic − jc ≥ 0). Tiles strictly above the diagonal are skipped,
// and tiles the diagonal crosses go through the scratch tile like edge
// tiles, keeping only the entries on or below it.
func macroKernel(mcb, ncb, kcb int, aPan, bPan, tile, cData []float64, ldc int, lower bool, d int) {
	for jp := 0; jp < ncb; jp += NR {
		w := NR
		if jp+w > ncb {
			w = ncb - jp
		}
		bp := bPan[(jp/NR)*NR*kcb:]
		for ip := 0; ip < mcb; ip += MR {
			h := MR
			if ip+h > mcb {
				h = mcb - ip
			}
			if lower && d+ip+h <= jp {
				continue // every row of the tile lies above the diagonal
			}
			ap := aPan[(ip/MR)*MR*kcb:]
			crosses := lower && d+ip < jp+w-1
			if h == MR && w == NR && !crosses {
				ukernel(kcb, ap, bp, cData[ip*ldc+jp:], ldc)
				continue
			}
			for i := range tile[:MR*NR] {
				tile[i] = 0
			}
			ukernel(kcb, ap, bp, tile, NR)
			for r := 0; r < h; r++ {
				wr := w
				if crosses {
					wr = min(w, d+ip+r-jp+1) // columns jp+c with c ≤ row − jp
				}
				if wr <= 0 {
					continue
				}
				crow := cData[(ip+r)*ldc+jp : (ip+r)*ldc+jp+wr]
				trow := tile[r*NR : r*NR+wr]
				for j, v := range trow {
					crow[j] += v
				}
			}
		}
	}
}

// packedOp is one call of the packed engine: C += alpha·op(A)·op(B), or
// with lower set only the lower triangle of C += alpha·op(A)·op(A)ᵀ (Syrk,
// where op(B) = op(A)ᵀ is the same storage read with the other transpose).
// Matrix operands are unwrapped to (data, stride) immediately: the
// goroutine closures below must never capture a *Matrix, or escape analysis
// would heap-allocate every View the blocked Potrf/Trsm/Syrk callers pass in.
type packedOp struct {
	transA, transB Transpose
	alpha          float64
	aData          []float64
	aStride        int
	bData          []float64
	bStride        int
	cData          []float64
	cStride        int
	m, n, k        int // C is m×n, the product depth k
	lower          bool
}

// gemmPacked computes C += alpha·op(A)·op(B) through the packed micro-kernel
// engine.
func gemmPacked(transA, transB Transpose, alpha float64, a, b, c *Matrix) {
	k := a.Cols
	if transA == Trans {
		k = a.Rows
	}
	runPacked(packedOp{transA: transA, transB: transB, alpha: alpha,
		aData: a.Data, aStride: a.Stride, bData: b.Data, bStride: b.Stride,
		cData: c.Data, cStride: c.Stride, m: c.Rows, n: c.Cols, k: k})
}

// syrkPacked accumulates the lower triangle of C += alpha·op(A)·op(A)ᵀ in
// one packed pass: GEMM's blocking, with the macro-tiles and register
// tiles above the diagonal skipped.
func syrkPacked(trans Transpose, alpha float64, a, c *Matrix) {
	n, k := opShape(trans, a)
	runPacked(packedOp{transA: trans, transB: !trans, alpha: alpha,
		aData: a.Data, aStride: a.Stride, bData: a.Data, bStride: a.Stride,
		cData: c.Data, cStride: c.Stride, m: n, n: n, k: k, lower: true})
}

// runPacked drives the GotoBLAS loops of one packed-engine call.
// Parallelism is over mc-sized macro-tiles of C rows: the packed B panel is
// shared read-only, each worker packs its own A panel.
func runPacked(op packedOp) {
	bBufP := getPackBuf(&packBPool, min(op.k, kcBlock)*roundUp(min(op.n, ncBlock), NR))
	bBuf := *bBufP
	nTiles := (op.m + mcBlock - 1) / mcBlock
	for jc := 0; jc < op.n; jc += ncBlock {
		ncb := min(ncBlock, op.n-jc)
		// Lower triangle: macro-tiles wholly above column jc hold no entry
		// on or below the diagonal (ncBlock is a multiple of mcBlock).
		t0 := 0
		if op.lower {
			t0 = jc / mcBlock
		}
		for pc := 0; pc < op.k; pc += kcBlock {
			kcb := min(kcBlock, op.k-pc)
			packPanelsB(bBuf, op.transB, op.bData, op.bStride, pc, jc, kcb, ncb)
			if MaxWorkers() <= 1 || nTiles-t0 < 2 {
				// Serial fast path: no closure, zero per-call allocations.
				op.tileRange(t0, nTiles, bBuf, pc, jc, kcb, ncb)
			} else {
				op.tilesParallel(t0, nTiles, bBuf, pc, jc, kcb, ncb)
			}
		}
	}
	packBPool.Put(bBufP)
}

// tilesParallel fans the macro-tile sweep out across workers. It lives in
// its own function so the closure (and the heap moves of its captures)
// only exists when parallelism is actually used — the serial path in
// runPacked must stay allocation-free.
func (op packedOp) tilesParallel(t0, t1 int, bBuf []float64, pc, jc, kcb, ncb int) {
	parForTiles(t1-t0, func(lo, hi int) {
		op.tileRange(t0+lo, t0+hi, bBuf, pc, jc, kcb, ncb)
	})
}

// tileRange processes macro-tiles [t0,t1) of C rows against the shared
// packed B panel: pack the worker-private A panel, run the macro-kernel.
func (op packedOp) tileRange(t0, t1 int, bBuf []float64, pc, jc, kcb, ncb int) {
	aBufP := getPackBuf(&packAPool, MR*NR+roundUp(min(op.m-t0*mcBlock, mcBlock), MR)*kcb)
	tile, aBuf := (*aBufP)[:MR*NR], (*aBufP)[MR*NR:]
	for t := t0; t < t1; t++ {
		ic := t * mcBlock
		mcb := min(mcBlock, op.m-ic)
		nb := ncb
		if op.lower {
			nb = min(ncb, ic+mcb-jc) // later columns lie above the diagonal
		}
		packPanelsA(aBuf, op.transA, op.aData, op.aStride, ic, pc, mcb, kcb, op.alpha)
		macroKernel(mcb, nb, kcb, aBuf, bBuf, tile, op.cData[ic*op.cStride+jc:], op.cStride, op.lower, ic-jc)
	}
	packAPool.Put(aBufP)
}
