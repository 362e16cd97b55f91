// Package mathx provides the small numerical kernels shared by the
// transformer, the quantizers, and the encoders: dot products, stable
// softmax, norms and cosine similarity over float32 slices.
package mathx

import "math"

// Dot returns the inner product of a and b. Accumulation is in float64 for
// stability; inputs must have equal length.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return float32(s)
}

// Axpy computes y += alpha*x in place. The product is rounded to float32
// before the add (an explicit conversion, so no platform fuses the two
// into an FMA and results are the same everywhere).
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("mathx: Axpy length mismatch")
	}
	for i := range x {
		y[i] += float32(alpha * x[i])
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// Cosine returns the cosine similarity of a and b. If either vector is
// zero, it returns 0.
func Cosine(a, b []float32) float64 {
	na, nb := float64(Norm2(a)), float64(Norm2(b))
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(Dot(a, b)) / (na * nb)
}

// Softmax replaces x with softmax(x) using the max-subtraction trick.
// An empty slice is a no-op.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxv))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range x {
		x[i] *= inv
	}
}

// Argmax returns the index of the largest element (first on ties).
// It panics on an empty slice.
func Argmax(x []float32) int {
	if len(x) == 0 {
		panic("mathx: Argmax of empty slice")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// MinMax returns the smallest and largest values in x.
// It panics on an empty slice.
func MinMax(x []float32) (mn, mx float32) {
	if len(x) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	mn, mx = x[0], x[0]
	for _, v := range x[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// MeanAbsDiff returns mean |a_i - b_i|; inputs must have equal length.
func MeanAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("mathx: MeanAbsDiff length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s / float64(len(a))
}

// Normalize scales x to unit L2 norm in place; a zero vector is unchanged.
func Normalize(x []float32) {
	n := Norm2(x)
	if n == 0 {
		return
	}
	Scale(1/n, x)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
