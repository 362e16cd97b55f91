// Package quant implements the low-bit quantization kernels of the
// reproduction: asymmetric uniform group quantization to INT2/INT4/INT8
// with bit-packed storage, per-token and per-channel grouping axes, a
// non-uniform (codebook) variant modelled on KVQuant's nuqX data type, and
// fused dequantize-multiply kernels (the paper's "fqm").
//
// Storage layout. Codes are packed little-endian within a byte in row-major
// order (INT4: two codes per byte, INT2: four). Group scale and zero-point
// parameters are stored as IEEE binary16 exactly as GPU kernels do, so the
// byte accounting used by the hardware model is honest:
//
//	bytes = ceil(rows*cols*bits/8) + 4*numGroups (+ 4*2^bits codebook)
package quant

import (
	"fmt"
	"math"

	"repro/internal/f16"
	"repro/internal/mathx"
)

// Bits is a supported integer bitwidth.
type Bits int

// Supported bitwidths.
const (
	INT2 Bits = 2
	INT4 Bits = 4
	INT8 Bits = 8
)

// Levels returns the number of representable codes.
func (b Bits) Levels() int { return 1 << b }

func (b Bits) valid() bool { return b == INT2 || b == INT4 || b == INT8 }

// Axis selects the grouping direction.
type Axis int

const (
	// PerToken groups run along a row (one token's channels share scales),
	// the conventional KV quantization axis (Atom, KIVI's V cache).
	PerToken Axis = iota
	// PerChannel groups run down a column (one channel across G tokens
	// shares scales), KIVI's K-cache axis.
	PerChannel
)

// String returns the axis label ("per-token" or "per-channel").
func (a Axis) String() string {
	if a == PerChannel {
		return "per-channel"
	}
	return "per-token"
}

// Tensor is a quantized rows×cols matrix. A Tensor is immutable after
// Quantize and safe for any number of concurrent readers — sealed KV
// caches rely on this to share quantized segments across request forks.
type Tensor struct {
	Bits       Bits
	Rows, Cols int
	Axis       Axis
	GroupSize  int

	codes []byte
	// scales/zeros are indexed by group id (see groupIndex); stored FP16.
	scales []f16.F16
	zeros  []f16.F16
	// codebook, when non-nil, holds 2^bits normalized levels in [0,1] used
	// instead of the uniform grid (non-uniform quantization, KVQuant nuqX).
	codebook []float32
}

// Config controls quantization.
type Config struct {
	Bits      Bits
	Axis      Axis
	GroupSize int       // values per scale group; <=0 defaults to 32
	Codebook  []float32 // optional normalized non-uniform levels in [0,1]
}

// DefaultGroupSize is the group size used when Config.GroupSize <= 0.
const DefaultGroupSize = 32

// Quantize quantizes a rows×cols row-major matrix.
func Quantize(data []float32, rows, cols int, cfg Config) *Tensor {
	if len(data) != rows*cols {
		panic("quant: data length mismatch")
	}
	if !cfg.Bits.valid() {
		panic(fmt.Sprintf("quant: unsupported bitwidth %d", cfg.Bits))
	}
	g := cfg.GroupSize
	if g <= 0 {
		g = DefaultGroupSize
	}
	if cfg.Codebook != nil && len(cfg.Codebook) != cfg.Bits.Levels() {
		panic("quant: codebook size must be 2^bits")
	}
	t := &Tensor{
		Bits: cfg.Bits, Rows: rows, Cols: cols,
		Axis: cfg.Axis, GroupSize: g,
		codes:    make([]byte, (rows*cols*int(cfg.Bits)+7)/8),
		codebook: cfg.Codebook,
	}
	ng := t.numGroups()
	t.scales = make([]f16.F16, ng)
	t.zeros = make([]f16.F16, ng)

	// First pass: per-group min/max.
	mins := make([]float32, ng)
	maxs := make([]float32, ng)
	for i := range mins {
		mins[i] = float32(math.Inf(1))
		maxs[i] = float32(math.Inf(-1))
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			gi := t.groupIndex(i, j)
			v := data[i*cols+j]
			if v < mins[gi] {
				mins[gi] = v
			}
			if v > maxs[gi] {
				maxs[gi] = v
			}
		}
	}
	maxCode := float32(cfg.Bits.Levels() - 1)
	for gi := range mins {
		if math.IsInf(float64(mins[gi]), 1) { // empty group (rows==0)
			mins[gi], maxs[gi] = 0, 0
		}
		scale := (maxs[gi] - mins[gi]) / maxCode
		t.scales[gi] = f16.From32(scale)
		t.zeros[gi] = f16.From32(mins[gi])
	}

	// Second pass: encode. Scale/zero are used at FP16 precision, matching
	// what a GPU kernel would load at dequantization time.
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			gi := t.groupIndex(i, j)
			scale := f16.To32(t.scales[gi])
			zero := f16.To32(t.zeros[gi])
			v := data[i*cols+j]
			var code int
			if scale == 0 {
				code = 0
			} else if t.codebook != nil {
				code = nearestLevel(t.codebook, (v-zero)/(scale*maxCode))
			} else {
				code = int(mathx.Clamp((v-zero)/scale+0.5, 0, maxCode))
			}
			t.setCode(i*cols+j, code)
		}
	}
	return t
}

// numGroups returns the number of scale groups.
func (t *Tensor) numGroups() int {
	g := t.GroupSize
	switch t.Axis {
	case PerChannel:
		return ((t.Rows + g - 1) / g) * t.Cols
	default:
		return t.Rows * ((t.Cols + g - 1) / g)
	}
}

// groupIndex maps element (i, j) to its scale group.
func (t *Tensor) groupIndex(i, j int) int {
	g := t.GroupSize
	if t.Axis == PerChannel {
		return (i/g)*t.Cols + j
	}
	return i*((t.Cols+g-1)/g) + j/g
}

func (t *Tensor) setCode(idx, code int) {
	switch t.Bits {
	case INT8:
		t.codes[idx] = byte(code)
	case INT4:
		shift := uint((idx & 1) * 4)
		t.codes[idx>>1] |= byte(code) << shift
	case INT2:
		shift := uint((idx & 3) * 2)
		t.codes[idx>>2] |= byte(code) << shift
	}
}

// Code returns the raw integer code of element index idx (row-major).
func (t *Tensor) Code(idx int) int {
	switch t.Bits {
	case INT8:
		return int(t.codes[idx])
	case INT4:
		return int(t.codes[idx>>1]>>uint((idx&1)*4)) & 0xf
	default: // INT2
		return int(t.codes[idx>>2]>>uint((idx&3)*2)) & 0x3
	}
}

// nearestLevel returns the index of the codebook level closest to x.
// Codebook levels must be sorted ascending.
func nearestLevel(cb []float32, x float32) int {
	lo, hi := 0, len(cb)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if cb[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	if x-cb[lo] <= cb[hi]-x {
		return lo
	}
	return hi
}

// At dequantizes element (i, j).
func (t *Tensor) At(i, j int) float32 {
	gi := t.groupIndex(i, j)
	return dequant(t.levels()[t.Code(i*t.Cols+j)], f16.To32(t.scales[gi]), f16.To32(t.zeros[gi]), t.maxCode())
}

// DequantRowInto writes the dequantized row i into dst (len == Cols).
func (t *Tensor) DequantRowInto(dst []float32, i int) {
	if len(dst) != t.Cols {
		panic("quant: DequantRowInto length mismatch")
	}
	for j := range dst {
		dst[j] = t.At(i, j)
	}
}

// Dequantize materializes the full matrix.
func (t *Tensor) Dequantize() []float32 {
	out := make([]float32, t.Rows*t.Cols)
	for i := 0; i < t.Rows; i++ {
		t.DequantRowInto(out[i*t.Cols:(i+1)*t.Cols], i)
	}
	return out
}

// Bytes returns the storage footprint in bytes: packed codes, FP16 scales
// and zeros, and the codebook if present. This is the honest accounting
// the hardware model and the session store's byte budget both consume.
func (t *Tensor) Bytes() int {
	b := len(t.codes) + 2*len(t.scales) + 2*len(t.zeros)
	if t.codebook != nil {
		b += 4 * len(t.codebook)
	}
	return b
}

// MaxGroupError returns the worst-case absolute reconstruction error bound
// implied by the stored scales (scale/2 per element for uniform grids).
func (t *Tensor) MaxGroupError() float32 {
	if t.codebook != nil {
		panic("quant: MaxGroupError undefined for codebook tensors")
	}
	var worst float32
	for _, s := range t.scales {
		if e := f16.To32(s) / 2; e > worst {
			worst = e
		}
	}
	return worst
}

// GaussianCodebook returns a 2^bits non-uniform codebook with levels placed
// at Gaussian quantiles, normalized to [0,1]. This approximates KVQuant's
// sensitivity-weighted nuqX levels for near-Gaussian KV distributions and
// beats the uniform grid on them.
func GaussianCodebook(bits Bits) []float32 {
	n := bits.Levels()
	cb := make([]float32, n)
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / float64(n)
		cb[i] = float32(gaussQuantile(p))
	}
	// Normalize to [0,1].
	lo, hi := cb[0], cb[n-1]
	for i := range cb {
		cb[i] = (cb[i] - lo) / (hi - lo)
	}
	return cb
}

// gaussQuantile is the standard normal quantile (Acklam's approximation,
// accurate to ~1e-9 — far below quantization error).
func gaussQuantile(p float64) float64 {
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
