package quant

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/f16"
	"repro/internal/rngx"
)

// The per-element reference kernels: the straightforward loops the fast
// kernels replaced, one groupIndex lookup, two FP16 widenings, one level
// division and one Code unpack per element. The fast kernels must match
// them bit for bit (see kernels.go's contract); float32 intermediates are
// written with explicit conversions so FMA fusion cannot make the two
// round differently on any platform.

func refLevel(t *Tensor, code int) float32 {
	if t.codebook != nil {
		return t.codebook[code]
	}
	return float32(code) / float32(t.Bits.Levels()-1)
}

func refValue(t *Tensor, i, j int) float32 {
	gi := t.groupIndex(i, j)
	maxCode := float32(t.Bits.Levels() - 1)
	return f16.To32(t.zeros[gi]) + float32(float32(refLevel(t, t.Code(i*t.Cols+j))*f16.To32(t.scales[gi]))*maxCode)
}

func refDotRow(t *Tensor, q []float32, i int) float32 {
	base := i * t.Cols
	var s float64
	if t.Axis == PerToken && t.codebook == nil {
		g := t.GroupSize
		for j0 := 0; j0 < t.Cols; j0 += g {
			j1 := min(j0+g, t.Cols)
			gi := t.groupIndex(i, j0)
			sc := f16.To32(t.scales[gi])
			zr := f16.To32(t.zeros[gi])
			var codeDot, qSum float64
			for j := j0; j < j1; j++ {
				qv := float64(q[j])
				codeDot += qv * float64(t.Code(base+j))
				qSum += qv
			}
			s += float64(codeDot*float64(sc)) + float64(qSum*float64(zr))
		}
		return float32(s)
	}
	for j := 0; j < t.Cols; j++ {
		s += float64(q[j]) * float64(refValue(t, i, j))
	}
	return float32(s)
}

func refAxpyRow(t *Tensor, dst []float32, alpha float32, i int) {
	for j := 0; j < t.Cols; j++ {
		dst[j] += float32(alpha * refValue(t, i, j))
	}
}

// sameBits reports bitwise equality, counting any two NaNs as equal
// (decoded tensors may carry NaN scales; payload propagation is the
// hardware's business, not the kernel's).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkKernels compares every fast kernel against the reference on t,
// returning the first mismatch.
func checkKernels(t *Tensor, q []float32, alpha float32, seed uint64) error {
	scores := make([]float32, t.Rows)
	t.ScoresInto(scores, q)
	for i := range scores {
		if want := refDotRow(t, q, i); !sameBits(scores[i], want) {
			return fmt.Errorf("ScoresInto row %d = %v, reference %v", i, scores[i], want)
		}
		if got := t.DotRow(q, i); !sameBits(got, scores[i]) {
			return fmt.Errorf("DotRow row %d = %v, ScoresInto %v", i, got, scores[i])
		}
	}
	r := rngx.New(seed)
	got := r.GaussianVec(t.Cols, 1)
	want := append([]float32(nil), got...)
	row := make([]float32, t.Cols)
	for i := 0; i < t.Rows; i++ {
		t.AxpyRow(got, alpha, i)
		refAxpyRow(t, want, alpha, i)
		for j := range got {
			if !sameBits(got[j], want[j]) {
				return fmt.Errorf("AxpyRow row %d col %d = %v, reference %v", i, j, got[j], want[j])
			}
		}
		t.DequantRowInto(row, i)
		for j, v := range row {
			if ref := refValue(t, i, j); !sameBits(v, ref) {
				return fmt.Errorf("DequantRowInto (%d,%d) = %v, reference %v", i, j, v, ref)
			}
		}
	}
	return nil
}

// TestKernelsMatchReference is the reference matrix: every fast kernel,
// bitwise, over {INT2, INT4, INT8} × {PerToken, PerChannel} × {uniform,
// codebook} × {asymmetric, symmetric grid} × shapes with ragged groups
// on both axes, odd Cols, packed rows read in place by the fused byte
// loops, groups longer than the tensor, empty tensors and Cols wider
// than the stack scratch.
func TestKernelsMatchReference(t *testing.T) {
	shapes := []struct{ rows, cols, group int }{
		{37, 48, 32},             // served width, ragged row blocks
		{9, 33, 16},              // odd Cols: ragged INT4/INT2 rows
		{13, 7, 5},               // ragged groups on both axes
		{6, 30, 3},               // Cols a multiple of 2 but not 4
		{3, 16, 64},              // group longer than the tensor on both axes
		{64, 1, 3},               // single column
		{11, 40, 16},             // packed rows, short last group
		{7, 44, 32},              // packed rows, 12-column last group
		{5, stackCols + 45, 32},  // wider than the stack scratch, ragged
		{3, 2*stackCols + 8, 32}, // wider than the stack scratch, packed
		{0, 12, 4},               // no rows
		{4, 0, 8},                // no columns
	}
	r := rngx.New(23)
	for _, sh := range shapes {
		for _, bits := range []Bits{INT2, INT4, INT8} {
			for _, axis := range []Axis{PerToken, PerChannel} {
				for _, cb := range [][]float32{nil, GaussianCodebook(bits)} {
					for _, quantize := range []func([]float32, int, int, Config) *Tensor{Quantize, SymmetricQuantize} {
						data := r.GaussianVec(sh.rows*sh.cols, 1.7)
						q := quantize(data, sh.rows, sh.cols, Config{Bits: bits, Axis: axis, GroupSize: sh.group, Codebook: cb})
						if err := checkKernels(q, r.GaussianVec(sh.cols, 1), 0.3711, uint64(sh.cols)); err != nil {
							t.Fatalf("%dx%d group %d bits %d %v codebook %v: %v", sh.rows, sh.cols, sh.group, bits, axis, cb != nil, err)
						}
					}
				}
			}
		}
	}
}

// fuzzFloats decodes raw bytes onto a coarse grid in (-8, 8), cycling.
func fuzzFloats(raw []byte, n int, salt byte) []float32 {
	out := make([]float32, n)
	if len(raw) == 0 {
		raw = []byte{salt}
	}
	for i := range out {
		out[i] = (float32(raw[i%len(raw)]^salt) - 127.5) / 16
	}
	return out
}

// FuzzKernelsMatchReference fuzzes geometry, grid, codebook and contents
// and asserts every fast kernel is bitwise equal to the reference.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte{0, 255, 128, 7, 19, 200, 90, 31}, byte(3), byte(48), byte(0), byte(32))
	f.Add([]byte{1, 2, 3, 4}, byte(9), byte(33), byte(13), byte(16))
	f.Add([]byte{250, 250, 250, 0, 0, 0}, byte(2), byte(7), byte(22), byte(5))
	f.Add([]byte{42}, byte(12), byte(16), byte(17), byte(0))
	f.Fuzz(func(t *testing.T, raw []byte, rows8, cols8, pick, group8 byte) {
		rows := int(rows8 % 40)
		cols := int(cols8) + int(pick>>7)*stackCols // occasionally wider than the stack scratch
		bits := []Bits{INT2, INT4, INT8}[int(pick)%3]
		axis := Axis(int(pick/3) % 2)
		var cb []float32
		if pick/6%2 == 1 {
			cb = GaussianCodebook(bits)
		}
		quantize := Quantize
		if pick/12%2 == 1 {
			quantize = SymmetricQuantize
		}
		data := fuzzFloats(raw, rows*cols, 0)
		q := quantize(data, rows, cols, Config{Bits: bits, Axis: axis, GroupSize: int(group8), Codebook: cb})
		if err := checkKernels(q, fuzzFloats(raw, cols, 0x5a), 0.3711, uint64(pick)); err != nil {
			t.Fatalf("%dx%d group %d bits %d %v codebook %v: %v", rows, cols, q.GroupSize, bits, axis, cb != nil, err)
		}
	})
}

// FuzzDecodeTensor feeds arbitrary bytes to DecodeTensor: it either
// returns an error or a tensor on which every kernel runs without
// panicking and agrees with the reference (NaN scales included).
// Tensors decoded with more than 1<<16 elements (possible with zero-width
// rows, which cost no code bytes) skip the kernel run to bound memory.
func FuzzDecodeTensor(f *testing.F) {
	r := rngx.New(31)
	for _, cfg := range []Config{
		{Bits: INT4, Axis: PerChannel, GroupSize: 4},
		{Bits: INT2, Axis: PerToken, GroupSize: 3},
		{Bits: INT8, Axis: PerToken, GroupSize: 5, Codebook: GaussianCodebook(INT8)},
		{Bits: INT4, Axis: PerToken, GroupSize: 8, Codebook: GaussianCodebook(INT4)},
	} {
		q := Quantize(r.GaussianVec(5*7, 1), 5, 7, cfg)
		f.Add(q.AppendBinary(nil))
	}
	f.Add([]byte{4, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, _, err := DecodeTensor(data)
		if err != nil {
			return
		}
		if q.Rows*max(q.Cols, 1) > 1<<16 {
			return
		}
		_ = q.Bytes()
		_ = q.Dequantize()
		if err := checkKernels(q, fuzzFloats(data, q.Cols, 0x33), -1.25, 7); err != nil {
			t.Fatalf("decoded %dx%d bits %d %v group %d: %v", q.Rows, q.Cols, q.Bits, q.Axis, q.GroupSize, err)
		}
	})
}
