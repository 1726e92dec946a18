// Package kernels provides the simulated kernel libraries: cost models
// that translate graph operators into gpusim.KernelSpec launches.
//
// Three GEMM libraries stand in for the paper's cuBLAS, OpenAI-GEMM and a
// second OpenAI kernel variant (§3.1, Table 1). Each picks its own tile
// shape and efficiency as a function of the operand shape, with deliberate
// performance cliffs, so the fastest library depends on (M, K, N) in a way
// that is hard to predict statically — the property that motivates Astra's
// measurement-driven kernel selection.
//
// The time model is wave-quantized: a GEMM of shape (M×K)·(K×N) is tiled
// into ⌈M/tm⌉·⌈N/tn⌉ tiles; each tile occupies one SM for
// 2·tm·tn·K / (perSMFlops · eff) microseconds. Tile counts below the SM
// count leave the machine underutilized — that single mechanism yields the
// fusion wins, the diminishing returns of very large fusion groups, the
// §3.2 "fused is slower" anomaly (via the cuBLAS large-M tile cliff), and
// the multi-stream wins the paper reports.
package kernels

import (
	"fmt"
	"strconv"

	"astra/internal/gpusim"
	"astra/internal/graph"
)

// perSMFlopsUs is the peak per-SM throughput (flops/µs): 9.3 TFLOPS over
// 56 SMs, the P100 numbers from §2.3 of the paper.
const perSMFlopsUs = 9.3e6 / 56

// numSMs mirrors the simulated device; cost models use it only to decide
// split-K factors (real libraries know the device they target).
const numSMs = 56

// elemsPerTile is the element count one SM processes per elementwise tile.
const elemsPerTile = 2048

// elemRatePerSMUs is the per-SM elementwise throughput (elements/µs),
// derived from P100 HBM bandwidth (~720 GB/s over 56 SMs, 3 accesses of 8
// bytes per element).
const elemRatePerSMUs = 720e3 / 56 / (3 * 8)

// Library identifies a GEMM kernel library.
type Library int

// The simulated GEMM libraries.
const (
	CuBLAS Library = iota
	OpenAI1
	OpenAI2
	numLibraries
)

// Libraries returns all GEMM libraries in preference order (CuBLAS first,
// matching the frameworks' default).
func Libraries() []Library { return []Library{CuBLAS, OpenAI1, OpenAI2} }

// String names the library as in Table 1.
func (l Library) String() string {
	switch l {
	case CuBLAS:
		return "cublas"
	case OpenAI1:
		return "oai1"
	case OpenAI2:
		return "oai2"
	}
	return fmt.Sprintf("lib(%d)", int(l))
}

// GEMMShape is the (M×K)·(K×N) problem size.
type GEMMShape struct{ M, K, N int }

// String renders the shape as in Table 1 ("MxKxN").
func (s GEMMShape) String() string { return string(s.appendTo(nil)) }

// appendTo appends the shape as "MxKxN".
func (s GEMMShape) appendTo(b []byte) []byte {
	b = strconv.AppendInt(b, int64(s.M), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(s.K), 10)
	b = append(b, 'x')
	return strconv.AppendInt(b, int64(s.N), 10)
}

// Flops returns the multiply-add count of the GEMM.
func (s GEMMShape) Flops() int64 { return 2 * int64(s.M) * int64(s.K) * int64(s.N) }

// fitTile returns the smallest power-of-two tile height in [8, max] that
// covers dim, or max if dim exceeds it. Small tile heights carry an
// efficiency penalty (skinny tiles have poor compute intensity), which is
// how small mini-batches end up latency-bound.
func fitTile(dim, max int) int {
	for t := 8; t < max; t *= 2 {
		if t >= dim {
			return t
		}
	}
	return max
}

// skinnyPenalty scales efficiency down for short tiles.
func skinnyPenalty(tm int) float64 { return float64(tm) / float64(tm+16) }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// gemmPlan is a library's concrete tiling decision for a shape.
type gemmPlan struct {
	tm, tn int
	eff    float64
	splitK int // 1 = no split
}

func (l Library) plan(s GEMMShape) gemmPlan {
	switch l {
	case CuBLAS:
		p := gemmPlan{tn: 64, splitK: 1}
		p.tm = fitTile(s.M, 64)
		p.eff = 0.92 * skinnyPenalty(p.tm)
		if s.N >= 2048 {
			// cuBLAS (CUDA 8 era) loses ground on very wide N.
			p.eff *= 0.85
		}
		if s.M >= 512 {
			// Large-M tile switch: wider tiles, register-pressure cliff.
			// This is the §3.2 anomaly: a fused 512-row GEMM can lose to
			// two parallel 256-row GEMMs.
			p.tm = 128
			p.eff = 0.92 * 0.88 * skinnyPenalty(128)
		}
		// Split-K: when the grid is too small to fill the machine and the
		// reduction dimension is deep, cuBLAS splits K for parallelism at
		// a small reduction cost.
		tiles := ceilDiv(s.M, p.tm) * ceilDiv(s.N, p.tn)
		if tiles < numSMs && s.K >= 1024 {
			split := ceilDiv(numSMs, tiles)
			if split > 4 {
				split = 4
			}
			if split > 1 {
				p.splitK = split
				p.eff *= 0.93
			}
		}
		return p
	case OpenAI1:
		p := gemmPlan{tn: 64, splitK: 1}
		p.tm = fitTile(s.M, 64)
		switch {
		case s.N >= 2048:
			// Wide N is OpenAI1's sweet spot (Table 1 row 1): its
			// persistent-block kernel approaches peak per-SM throughput.
			p.eff = 0.99 * skinnyPenalty(p.tm)
		case s.K > 2048:
			// Deep reductions thrash its shared-memory staging
			// (Table 1 row 2).
			if p.tm > 32 {
				p.tm = 32
			}
			p.eff = 0.62 * skinnyPenalty(p.tm)
		default:
			p.eff = 0.90 * skinnyPenalty(p.tm)
		}
		return p
	default: // OpenAI2
		p := gemmPlan{tn: 32, splitK: 1}
		p.tm = fitTile(s.M, 64)
		if s.N >= 2048 {
			// Narrow tiles with a huge grid: pathological for wide N.
			p.eff = 0.11 * skinnyPenalty(p.tm)
		} else {
			p.eff = 0.82 * skinnyPenalty(p.tm)
		}
		return p
	}
}

// GEMM returns the kernel spec for running shape s with library l.
func GEMM(l Library, s GEMMShape) gpusim.KernelSpec {
	if s.M <= 0 || s.K <= 0 || s.N <= 0 {
		panic(fmt.Sprintf("kernels: bad GEMM shape %v", s))
	}
	p := l.plan(s)
	tiles := ceilDiv(s.M, p.tm) * ceilDiv(s.N, p.tn) * p.splitK
	kPerSplit := float64(s.K) / float64(p.splitK)
	tileTime := 2 * float64(p.tm) * float64(p.tn) * kPerSplit / (perSMFlopsUs * p.eff)
	// Kernels spanning more than one wave pipeline several thread blocks
	// per SM, which smooths the wave-quantization cliff: subdivide their
	// tiles. Sub-wave kernels stay latency-bound at one full tile time.
	if tiles > numSMs {
		f := ceilDiv(tiles, numSMs)
		if f > 4 {
			f = 4
		}
		tiles *= f
		tileTime /= float64(f)
	}
	return gpusim.KernelSpec{
		Name:       gemmName(l, s),
		Tiles:      tiles,
		TileTimeUs: tileTime,
	}
}

// gemmName renders "gemm_<library>_<MxKxN>" with a single allocation:
// schedules name every GEMM they lower.
func gemmName(l Library, s GEMMShape) string {
	var buf [48]byte
	b := append(buf[:0], "gemm_"...)
	b = append(b, l.String()...)
	b = append(b, '_')
	return string(s.appendTo(b))
}

// GEMMTimeAloneUs returns the device time of the GEMM when it runs alone on
// an idle device (setup excluded): waves × tile time. Reports and tests use
// it; dispatchers always go through the simulator instead.
func GEMMTimeAloneUs(l Library, s GEMMShape) float64 {
	spec := GEMM(l, s)
	waves := ceilDiv(spec.Tiles, numSMs)
	return float64(waves) * spec.TileTimeUs
}

// Elementwise returns the kernel spec for a single pointwise operator over
// n elements.
func Elementwise(name string, elems int) gpusim.KernelSpec {
	if elems <= 0 {
		panic("kernels: elementwise with no elements")
	}
	return gpusim.KernelSpec{
		Name:       "ew_" + name,
		Tiles:      ceilDiv(elems, elemsPerTile),
		TileTimeUs: elemsPerTile / elemRatePerSMUs,
	}
}

// FusedElementwise returns the spec for a JIT-fused chain of ops pointwise
// operators over elems elements. Fusion keeps intermediates in registers:
// the fused kernel reads inputs and writes the output once, so each extra
// op adds only its arithmetic (~20% of a standalone pass), not its memory
// traffic.
func FusedElementwise(ops, elems int) gpusim.KernelSpec {
	if ops <= 0 {
		panic("kernels: fused elementwise with no ops")
	}
	spec := Elementwise("fused"+strconv.Itoa(ops), elems)
	spec.TileTimeUs *= 1 + 0.2*float64(ops-1)
	return spec
}

// Copy returns the spec for a device-to-device copy of n bytes — the price
// of gathering fusion operands that the allocation strategy did not place
// contiguously (§3.2).
func Copy(bytes int64) gpusim.KernelSpec {
	if bytes <= 0 {
		bytes = 1
	}
	const bytesPerTile = elemsPerTile * 8
	// Copies move 2 bytes per byte payload (read + write) of the 3-access
	// budget in elemRatePerSMUs, so they run 1.5x the elementwise rate.
	rate := elemRatePerSMUs * 8 * 1.5
	return gpusim.KernelSpec{
		Name:       "copy",
		Tiles:      int((bytes + bytesPerTile - 1) / bytesPerTile),
		TileTimeUs: bytesPerTile / rate,
	}
}

// RowKernel returns the spec for row-structured kernels (softmax, CE and
// their gradients): elementwise traffic with a small arithmetic surcharge.
func RowKernel(name string, elems int) gpusim.KernelSpec {
	spec := Elementwise(name, elems)
	spec.TileTimeUs *= 1.6
	return spec
}

// ForNode maps a graph node to its kernel spec. GEMM nodes take the library
// choice; every other operator has a single implementation. The returned
// spec is what the dispatchers hand to gpusim.Device.Launch.
func ForNode(n *graph.Node, lib Library) gpusim.KernelSpec {
	switch n.Op {
	case graph.OpMatMul:
		s := GEMMShape{
			M: n.Inputs[0].Shape.Rows(),
			K: n.Inputs[0].Shape.Cols(),
			N: n.Inputs[1].Shape.Cols(),
		}
		return GEMM(lib, s)
	case graph.OpSoftmax, graph.OpCrossEntropy, graph.OpCrossEntropyGrad, graph.OpSoftmaxGrad:
		return RowKernel(n.Op.String(), n.Inputs[0].Shape.NumElements())
	case graph.OpConcatCols, graph.OpConcatRows, graph.OpSliceCols, graph.OpSliceRows,
		graph.OpPadCols, graph.OpPadRows, graph.OpTranspose, graph.OpBroadcastRows,
		graph.OpBroadcastCols, graph.OpRowSums, graph.OpSumRows:
		// Data-movement kernels read and write (about) their output; a
		// slice never touches the rest of its input.
		return Copy(int64(n.Out.Shape.NumElements()) * 8 * 2)
	case graph.OpScaleCols:
		return Elementwise(n.Op.String(), n.Out.Shape.NumElements())
	case graph.OpLookup, graph.OpLookupGrad:
		return Copy(int64(n.Out.Shape.NumElements()) * 8 * 2)
	default:
		if !n.Op.IsElementwise() {
			panic(fmt.Sprintf("kernels: no kernel for op %v", n.Op))
		}
		return Elementwise(n.Op.String(), n.Out.Shape.NumElements())
	}
}
