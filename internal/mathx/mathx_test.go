package mathx

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rngx"
)

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, -5, 6}
	if got := Dot(a, b); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestAxpyScale(t *testing.T) {
	y := []float32{1, 1}
	Axpy(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy wrong: %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("Scale wrong: %v", y)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
}

func TestCosine(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := Cosine(a, a); math.Abs(got-1) > 1e-6 {
		t.Fatalf("Cosine(a,a) = %v", got)
	}
	if got := Cosine(a, b); math.Abs(got) > 1e-6 {
		t.Fatalf("Cosine(orthogonal) = %v", got)
	}
	if got := Cosine(a, []float32{0, 0}); got != 0 {
		t.Fatalf("Cosine with zero vector = %v", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%32 + 1
		r := rngx.New(seed)
		x := r.GaussianVec(n, 5)
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-5
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{101, 102, 103}
	Softmax(x)
	Softmax(y)
	for i := range x {
		if math.Abs(float64(x[i]-y[i])) > 1e-6 {
			t.Fatalf("softmax not shift invariant: %v vs %v", x, y)
		}
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	x := []float32{1e30, 1e30}
	Softmax(x)
	if math.IsNaN(float64(x[0])) || math.Abs(float64(x[0]-0.5)) > 1e-6 {
		t.Fatalf("softmax unstable: %v", x)
	}
	Softmax(nil) // must not panic
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float32{1, 5, 3, 5}); got != 1 {
		t.Fatalf("Argmax = %d, want 1 (first max)", got)
	}
}

func TestMinMax(t *testing.T) {
	mn, mx := MinMax([]float32{3, -1, 7, 0})
	if mn != -1 || mx != 7 {
		t.Fatalf("MinMax = %v, %v", mn, mx)
	}
}

func TestMeanAbsDiff(t *testing.T) {
	if got := MeanAbsDiff([]float32{1, 2}, []float32{2, 4}); got != 1.5 {
		t.Fatalf("MeanAbsDiff = %v", got)
	}
	if got := MeanAbsDiff(nil, nil); got != 0 {
		t.Fatalf("MeanAbsDiff(nil) = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	x := []float32{3, 4}
	Normalize(x)
	if math.Abs(float64(Norm2(x)-1)) > 1e-6 {
		t.Fatalf("Normalize norm = %v", Norm2(x))
	}
	z := []float32{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("Normalize mutated zero vector")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

// rowKernelInput fills n values from r with a mix of ordinary Gaussians
// and the special values a row kernel must carry through exactly: signed
// zeros, subnormals, infinities and NaN.
func rowKernelInput(r *rngx.RNG, n int) []float32 {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32,
	}
	x := r.GaussianVec(n, 1)
	for i := range x {
		if r.Intn(6) == 0 {
			x[i] = special[r.Intn(len(special))]
		}
	}
	return x
}

// sameFloat reports bit identity, counting any two NaNs as equal. The Go
// spec leaves NaN payloads and signs unspecified, and the compiler may
// commute the operands of a float add or multiply (amd64 propagates the
// first operand's NaN), so which NaN a sum carries is not a property of
// the source; that it is NaN, and every non-NaN bit, is.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkRowKernels compares DotRows and AxpyRows bitwise against per-row
// Dot and successive Axpy calls over the same inputs.
func checkRowKernels(t *testing.T, q, rows, w, y []float32) {
	t.Helper()
	d := len(q)
	n := len(w)
	got := make([]float32, n)
	DotRows(q, rows, got)
	for i := 0; i < n; i++ {
		want := Dot(q, rows[i*d:(i+1)*d])
		if !sameFloat(got[i], want) {
			t.Fatalf("DotRows rows=%d d=%d row %d: %v (%#x), Dot %v (%#x)",
				n, d, i, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
		}
	}
	gy := append([]float32(nil), y...)
	wy := append([]float32(nil), y...)
	AxpyRows(w, rows, gy)
	for i := 0; i < n; i++ {
		Axpy(w[i], rows[i*d:(i+1)*d], wy)
	}
	for i := range gy {
		if !sameFloat(gy[i], wy[i]) {
			t.Fatalf("AxpyRows rows=%d d=%d y[%d]: %v (%#x), Axpy %v (%#x)",
				n, d, i, gy[i], math.Float32bits(gy[i]), wy[i], math.Float32bits(wy[i]))
		}
	}
}

func TestRowKernelsMatchDotAxpy(t *testing.T) {
	r := rngx.New(11)
	for _, d := range []int{1, 7, 48, 300} {
		for n := 0; n <= 17; n++ {
			for trial := 0; trial < 4; trial++ {
				gen := r.GaussianVec
				if trial > 0 {
					gen = func(k int, _ float64) []float32 { return rowKernelInput(r, k) }
				}
				checkRowKernels(t, gen(d, 1), gen(n*d, 1), gen(n, 1), gen(d, 1))
			}
		}
	}
}

func TestRowKernelsPanicOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"DotRows":  func() { DotRows([]float32{1, 2}, []float32{1, 2, 3}, make([]float32, 2)) },
		"AxpyRows": func() { AxpyRows([]float32{1}, []float32{1, 2, 3}, make([]float32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzRowKernelsMatchDot drives DotRows and AxpyRows with fuzzed bit
// patterns (every float32, NaN payloads and subnormals included) and
// fuzzed geometry, and requires bit-identity with Dot and Axpy.
func FuzzRowKernelsMatchDot(f *testing.F) {
	f.Add(uint8(3), uint8(9), []byte{0x00, 0x00, 0x80, 0x7f, 0x01, 0x00, 0x00, 0x80})
	f.Add(uint8(48), uint8(17), []byte{0xdb, 0x0f, 0x49, 0x40})
	f.Add(uint8(1), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, dRaw, nRaw uint8, data []byte) {
		d := int(dRaw)%64 + 1
		n := int(nRaw) % 20
		// Cycle the fuzzed bytes into float32 bit patterns; an empty
		// input reads as all zeros.
		vals := make([]float32, d+n*d+n+d)
		for i := range vals {
			var bits uint32
			for k := 0; k < 4 && len(data) > 0; k++ {
				bits |= uint32(data[(4*i+k)%len(data)]) << (8 * k)
			}
			vals[i] = math.Float32frombits(bits)
		}
		q, rows := vals[:d], vals[d:d+n*d]
		w, y := vals[d+n*d:d+n*d+n], vals[d+n*d+n:]
		checkRowKernels(t, q, rows, w, y)
	})
}
