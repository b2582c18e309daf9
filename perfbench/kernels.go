package main

import (
	"math/rand"
	"time"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// kernelMinTime is how long each kernel row measures; the rate is the
// median over kernelBatches batches of calls.
const (
	kernelMinTime = 150 * time.Millisecond
	kernelBatches = 5
	mrhsWidth     = 8 // columns of a predict request's multi-RHS half-solve
)

// kernelRow is one dense kernel shape: a call to time, a restore of its
// in-place operands (untimed), and its computed flop and byte counts.
type kernelRow struct {
	name    string
	call    func()
	restore func()
	flops   float64
	bytes   float64 // computed: 8 bytes per operand element read and result element written
}

// kernelRows measures single-threaded GFLOP/s of the BTA block kernels at
// block size b (POTRF, TRSM and SYRK/GEMM as factorStep calls them) and of
// the predict half-solve kernels on b×8 right-hand sides.
func kernelRows(L metricSet, b int) {
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(int64(b)))
	random := func(r, c int) *dense.Matrix {
		m := dense.New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.Float64() - 0.5
		}
		return m
	}
	spd := dense.MatMul(dense.NoTrans, dense.Trans, random(b, b), random(b, b))
	spd.Symmetrize()
	spd.AddDiag(float64(b))
	chol := spd.Clone()
	if err := dense.Potrf(chol); err != nil {
		panic(err) // diagonally dominant by construction
	}
	chol.ZeroUpper()

	work := dense.New(b, b)
	panel, panel0 := random(b, b), random(b, b)
	rhs, rhs0 := random(b, mrhsWidth), random(b, mrhsWidth)
	acc, accK := dense.New(b, b), dense.New(b, mrhsWidth)
	fb, fk := float64(b), float64(mrhsWidth)
	rows := []kernelRow{
		// spd is diagonally dominant, so Potrf cannot fail on it.
		{name: "potrf", call: func() { _ = dense.Potrf(work) }, restore: func() { work.CopyFrom(spd) },
			flops: fb * fb * fb / 3, bytes: 8 * 2 * fb * fb},
		{name: "trsm", call: func() { dense.Trsm(dense.Right, dense.Trans, chol, panel) }, restore: func() { panel.CopyFrom(panel0) },
			flops: fb * fb * fb, bytes: 8 * 3 * fb * fb},
		{name: "syrk", call: func() { dense.Syrk(dense.NoTrans, -1, panel0, 1, acc) },
			flops: fb * fb * fb, bytes: 8 * 3 * fb * fb},
		{name: "gemm", call: func() { dense.Gemm(dense.NoTrans, dense.Trans, -1, panel0, chol, 1, acc) },
			flops: 2 * fb * fb * fb, bytes: 8 * 4 * fb * fb},
		{name: "trsm_mrhs8", call: func() { dense.Trsm(dense.Left, dense.NoTrans, chol, rhs) }, restore: func() { rhs.CopyFrom(rhs0) },
			flops: fb * fb * fk, bytes: 8 * (fb*fb + 2*fb*fk)},
		{name: "gemm_mrhs8", call: func() { dense.Gemm(dense.NoTrans, dense.NoTrans, -1, chol, rhs0, 1, accK) },
			flops: 2 * fb * fb * fk, bytes: 8 * (fb*fb + 3*fb*fk)},
	}
	for _, r := range rows {
		L.set("dense."+r.name+"_gflops", measureKernel(r)/1e9, "GFLOP/s")
		L.set("dense."+r.name+"_computed_flops", r.flops, "flop")
		L.set("dense."+r.name+"_computed_bytes", r.bytes, "B")
	}
	L.set("dense.block_size", fb, "count")
}

// measureKernel returns the median rate (flop/s) over kernelBatches
// batches, each timing calls one by one until it has kernelMinTime /
// kernelBatches of kernel time.
func measureKernel(r kernelRow) float64 {
	rates := make([]float64, 0, kernelBatches)
	for i := 0; i < kernelBatches; i++ {
		var busy time.Duration
		calls := 0
		for busy < kernelMinTime/kernelBatches {
			if r.restore != nil {
				r.restore()
			}
			t0 := time.Now()
			r.call()
			busy += time.Since(t0)
			calls++
		}
		rates = append(rates, r.flops*float64(calls)/busy.Seconds())
	}
	return median(rates)
}
