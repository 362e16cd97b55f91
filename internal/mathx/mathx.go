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

// DotRows writes out[t] = Dot(q, row t) for the len(out) row-major rows of
// width len(q) in rows. Eight rows share each pass over q, one float64
// accumulator per row: the accumulators are independent, so running them
// side by side hides the add latency while every row's sum keeps Dot's
// operations and left-to-right order, and the results are bit-identical
// to Dot's.
func DotRows(q, rows, out []float32) {
	d := len(q)
	if len(rows) != len(out)*d {
		panic("mathx: DotRows length mismatch")
	}
	t := 0
	for ; t+8 <= len(out); t += 8 {
		r := rows[t*d : (t+8)*d]
		r0, r1, r2, r3 := r[:d], r[d:][:d], r[2*d:][:d], r[3*d:][:d]
		r4, r5, r6, r7 := r[4*d:][:d], r[5*d:][:d], r[6*d:][:d], r[7*d:][:d]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i, v := range q {
			x := float64(v)
			s0 += x * float64(r0[i])
			s1 += x * float64(r1[i])
			s2 += x * float64(r2[i])
			s3 += x * float64(r3[i])
			s4 += x * float64(r4[i])
			s5 += x * float64(r5[i])
			s6 += x * float64(r6[i])
			s7 += x * float64(r7[i])
		}
		o := out[t : t+8]
		o[0], o[1], o[2], o[3] = float32(s0), float32(s1), float32(s2), float32(s3)
		o[4], o[5], o[6], o[7] = float32(s4), float32(s5), float32(s6), float32(s7)
	}
	for ; t < len(out); t++ {
		out[t] = Dot(q, rows[t*d:(t+1)*d])
	}
}

// AxpyRows computes y += w[t]*row t for the len(w) row-major rows of width
// len(y) in rows, in row order. Four rows share each pass over y, and each
// y[i] receives the same float32(w[t]*row t[i]) terms in the same order as
// successive Axpy calls would add them, so results are bit-identical.
func AxpyRows(w, rows, y []float32) {
	d := len(y)
	if len(rows) != len(w)*d {
		panic("mathx: AxpyRows length mismatch")
	}
	t := 0
	for ; t+4 <= len(w); t += 4 {
		r := rows[t*d : (t+4)*d]
		r0, r1, r2, r3 := r[:d], r[d:][:d], r[2*d:][:d], r[3*d:][:d]
		w0, w1, w2, w3 := w[t], w[t+1], w[t+2], w[t+3]
		for i, v := range y {
			v += float32(w0 * r0[i])
			v += float32(w1 * r1[i])
			v += float32(w2 * r2[i])
			v += float32(w3 * r3[i])
			y[i] = v
		}
	}
	for ; t < len(w); t++ {
		Axpy(w[t], rows[t*d:(t+1)*d], y)
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
