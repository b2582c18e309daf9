package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestMicroKernelMatchesGo cross-checks the active micro-kernel (assembly
// on capable amd64 CPUs) against the portable Go kernel on random packed
// panels, including k == 0 and odd k (the unrolled tail path).
func TestMicroKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{0, 1, 2, 3, 7, 16, 33, 255, 256} {
		a := make([]float64, k*MR)
		b := make([]float64, k*NR)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ldc := NR + 3 // non-trivial stride
		want := make([]float64, MR*ldc)
		got := make([]float64, MR*ldc)
		for i := range want {
			v := rng.NormFloat64()
			want[i] = v
			got[i] = v
		}
		ukernelGo(k, a, b, want, ldc)
		ukernel(k, a, b, got, ldc)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("k=%d: kernel mismatch at %d: got %g want %g", k, i, got[i], want[i])
			}
		}
	}
}

func benchGemm(b *testing.B, n int, naive bool) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(1))
	x := New(n, n)
	y := New(n, n)
	c := New(n, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			GemmNaive(NoTrans, NoTrans, 1, x, y, 0, c)
		} else {
			Gemm(NoTrans, NoTrans, 1, x, y, 0, c)
		}
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGemm64(b *testing.B)        { benchGemm(b, 64, false) }
func BenchmarkGemm256(b *testing.B)       { benchGemm(b, 256, false) }
func BenchmarkGemm1024(b *testing.B)      { benchGemm(b, 1024, false) }
func BenchmarkGemmNaive64(b *testing.B)   { benchGemm(b, 64, true) }
func BenchmarkGemmNaive256(b *testing.B)  { benchGemm(b, 256, true) }
func BenchmarkGemmNaive1024(b *testing.B) { benchGemm(b, 1024, true) }

func benchPotrf(b *testing.B, n int) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(2))
	g := New(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	spd := New(n, n)
	Syrk(NoTrans, 1, g, 0, spd)
	spd.MirrorLowerToUpper()
	spd.AddDiag(float64(n))
	w := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.CopyFrom(spd)
		if err := Potrf(w); err != nil {
			b.Fatal(err)
		}
	}
	flops := float64(n) * float64(n) * float64(n) / 3
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkPotrf256(b *testing.B)  { benchPotrf(b, 256) }
func BenchmarkPotrf1024(b *testing.B) { benchPotrf(b, 1024) }

// TestGemmZeroAllocSteadyState: after warm-up, repeated Gemm calls on the
// packed path recycle all packing buffers through the pools.
func TestGemmZeroAllocSteadyState(t *testing.T) {
	if RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	n := 192
	x := New(n, n)
	y := New(n, n)
	c := New(n, n)
	for i := range x.Data {
		x.Data[i] = float64(i % 13)
		y.Data[i] = float64(i % 11)
	}
	Gemm(NoTrans, NoTrans, 1, x, y, 0, c) // warm the pools
	allocs := testing.AllocsPerRun(20, func() {
		Gemm(NoTrans, Trans, 1, x, y, 0.5, c)
	})
	if allocs != 0 {
		t.Fatalf("packed Gemm allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// BenchmarkFactorKernels times the kernels one BTA elimination step calls,
// single-threaded, at the block shapes of the benchmark workloads: b=30
// (fit-chain) and b=144 (fit-ap1), with b-row and 6-row (arrow) right-hand
// sides. Each op restores its in-place operand untimed.
func BenchmarkFactorKernels(b *testing.B) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	for _, n := range []int{30, 48, 64, 96, 144} {
		rng := rand.New(rand.NewSource(int64(n)))
		spd := randSPD(rng, n)
		chol := spd.Clone()
		if err := Potrf(chol); err != nil {
			b.Fatal(err)
		}
		chol.ZeroUpper()
		work := New(n, n)
		fn := float64(n)
		for _, m := range []int{n, 6} {
			panel0 := randMat(rng, m, n)
			panel := New(m, n)
			acc := New(m, m)
			fm := float64(m)
			run := func(name string, flops float64, restore, call func()) {
				b.Run(fmt.Sprintf("%s/b=%d/m=%d", name, n, m), func(b *testing.B) {
					var busy time.Duration
					for i := 0; i < b.N; i++ {
						restore()
						t0 := time.Now()
						call()
						busy += time.Since(t0)
					}
					b.ReportMetric(flops*float64(b.N)/busy.Seconds()/1e9, "GFLOP/s")
				})
			}
			nop := func() {}
			if m == n {
				run("potrf", fn*fn*fn/3, func() { work.CopyFrom(spd) }, func() { _ = Potrf(work) })
			}
			run("trsmRT", fm*fn*fn, func() { panel.CopyFrom(panel0) }, func() { Trsm(Right, Trans, chol, panel) })
			run("trsmRN", fm*fn*fn, func() { panel.CopyFrom(panel0) }, func() { Trsm(Right, NoTrans, chol, panel) })
			run("syrk", fm*fm*fn, nop, func() { Syrk(NoTrans, -1, panel0, 1, acc) })
		}
	}
}
