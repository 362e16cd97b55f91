// Package f16 implements IEEE 754 binary16 ("half precision") conversion.
//
// The paper stores the unquantized portion of the KV cache in FP16. Go has
// no native float16, so we represent FP16 storage as uint16 payloads with
// exact IEEE 754 binary16 semantics (round-to-nearest-even, subnormals,
// infinities, NaN). Compute always happens in float32 after widening — the
// same discipline CUDA kernels use — so FP16 here costs 2 bytes per value
// and carries genuine FP16 rounding error.
package f16

import "math"

// F16 is an IEEE 754 binary16 value stored in a uint16.
type F16 uint16

const (
	// PosInf is the binary16 positive infinity.
	PosInf F16 = 0x7c00
	// NegInf is the binary16 negative infinity.
	NegInf F16 = 0xfc00
	// MaxValue is the largest finite binary16 value (65504).
	MaxValue F16 = 0x7bff
)

// From32 converts a float32 to binary16 with round-to-nearest-even.
func From32(f float32) F16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if man != 0 {
			// Preserve a quiet NaN; keep top mantissa bits.
			return F16(sign | 0x7c00 | uint16(man>>13) | 1)
		}
		return F16(sign | 0x7c00)
	case exp == 0 && man == 0: // signed zero
		return F16(sign)
	}

	// Re-bias exponent from float32 (127) to float16 (15).
	e := exp - 127 + 15
	switch {
	case e >= 0x1f: // overflow -> infinity
		return F16(sign | 0x7c00)
	case e <= 0:
		// Subnormal half (or underflow to zero).
		if e < -10 {
			return F16(sign)
		}
		// Add the implicit leading 1 and shift into the 10-bit subnormal
		// mantissa with round-to-nearest-even. A carry out of the mantissa
		// lands exactly on the smallest normal half, which is the correct
		// bit pattern with no special casing.
		man |= 0x800000
		shift := uint32(14 - e)
		half := uint32(1) << (shift - 1)
		q := man >> shift
		rem := man & ((uint32(1) << shift) - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++
		}
		return F16(sign | uint16(q))
	default:
		// Normal number: round mantissa from 23 to 10 bits, nearest-even.
		q := man >> 13
		rem := man & 0x1fff
		switch {
		case rem > 0x1000, rem == 0x1000 && q&1 == 1:
			q++
		}
		h := (uint32(e) << 10) + q // mantissa carry may bump exponent; that is correct
		if h >= 0x7c00 {
			return F16(sign | 0x7c00)
		}
		return F16(sign | uint16(h))
	}
}

// to32Table holds To32 of every binary16 bit pattern, so widening — the
// inner step of every FP16 attention kernel — is one load. 256 KiB of
// static data (not heap), filled once at package initialization by to32.
var to32Table [1 << 16]float32

func init() {
	for h := range to32Table {
		to32Table[h] = to32(F16(h))
	}
}

// To32 converts a binary16 to float32 exactly (the conversion is lossless).
func To32(h F16) float32 { return to32Table[h] }

// to32 is the arithmetic binary16 → float32 conversion that fills
// to32Table.
func to32(h F16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h) & 0x3ff

	switch {
	case exp == 0x1f: // Inf/NaN
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | e<<23 | man<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | man<<13)
	}
}

// Round applies FP16 rounding to a float32 (a From32/To32 round trip).
func Round(f float32) float32 { return To32(From32(f)) }

// FromSlice converts a float32 slice into a fresh F16 slice.
func FromSlice(xs []float32) []F16 {
	hs := make([]F16, len(xs))
	for i, x := range xs {
		hs[i] = From32(x)
	}
	return hs
}

// ToSlice widens an F16 slice into a fresh float32 slice.
func ToSlice(hs []F16) []float32 {
	xs := make([]float32, len(hs))
	for i, h := range hs {
		xs[i] = To32(h)
	}
	return xs
}

// Dot returns the inner product of q and the widened h, accumulated in
// float64 exactly like mathx.Dot over the widened row (products of two
// float32 values are exact in float64, so no FMA can change the sum).
func Dot(q []float32, h []F16) float32 {
	if len(q) != len(h) {
		panic("f16: Dot length mismatch")
	}
	var s float64
	for i, v := range h {
		s += float64(q[i]) * float64(To32(v))
	}
	return float32(s)
}

// Axpy computes y += alpha*widen(h) in place, with the product rounded
// to float32 before the add, as mathx.Axpy does.
func Axpy(alpha float32, h []F16, y []float32) {
	if len(h) != len(y) {
		panic("f16: Axpy length mismatch")
	}
	for i, v := range h {
		y[i] += float32(alpha * To32(v))
	}
}

// ToSliceInto widens hs into dst, which must have the same length.
func ToSliceInto(dst []float32, hs []F16) {
	if len(dst) != len(hs) {
		panic("f16: ToSliceInto length mismatch")
	}
	for i, h := range hs {
		dst[i] = To32(h)
	}
}

// Bytes reports the storage size in bytes of n FP16 values.
func Bytes(n int) int { return 2 * n }
