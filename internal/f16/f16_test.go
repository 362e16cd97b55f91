package f16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f float32
		h F16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // max finite half
		{5.9604645e-08, 0x0001},         // smallest subnormal
		{6.097555160522461e-05, 0x03ff}, // largest subnormal
		{6.103515625e-05, 0x0400},       // smallest normal
		{0.333251953125, 0x3555},        // 1/3 rounded to half
	}
	for _, c := range cases {
		if got := From32(c.f); got != c.h {
			t.Errorf("From32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := To32(c.h); got != c.f {
			t.Errorf("To32(%#04x) = %v, want %v", c.h, got, c.f)
		}
	}
}

func TestInfNaN(t *testing.T) {
	if From32(float32(math.Inf(1))) != PosInf {
		t.Error("+Inf not converted")
	}
	if From32(float32(math.Inf(-1))) != NegInf {
		t.Error("-Inf not converted")
	}
	if !math.IsNaN(float64(To32(From32(float32(math.NaN()))))) {
		t.Error("NaN not preserved through round trip")
	}
	if !math.IsInf(float64(To32(PosInf)), 1) {
		t.Error("To32(PosInf) not +Inf")
	}
}

func TestOverflowToInf(t *testing.T) {
	if From32(70000) != PosInf {
		t.Errorf("70000 should overflow to +Inf, got %#04x", From32(70000))
	}
	if From32(-70000) != NegInf {
		t.Errorf("-70000 should overflow to -Inf")
	}
	// 65519.99 rounds up past max finite -> inf; 65519 rounds down to 65504.
	if From32(65519) != MaxValue {
		t.Errorf("65519 should round to max finite, got %#04x", From32(65519))
	}
	if From32(65520) != PosInf {
		t.Errorf("65520 should round to +Inf, got %#04x", From32(65520))
	}
}

func TestUnderflowToZero(t *testing.T) {
	if From32(1e-10) != 0 {
		t.Errorf("1e-10 should underflow to +0, got %#04x", From32(1e-10))
	}
	if From32(-1e-10) != 0x8000 {
		t.Errorf("-1e-10 should underflow to -0, got %#04x", From32(-1e-10))
	}
}

// TestRoundTripExactForHalfValues: every finite half value must survive
// To32 -> From32 unchanged.
func TestRoundTripExactForHalfValues(t *testing.T) {
	for i := 0; i <= 0xffff; i++ {
		h := F16(i)
		if h&0x7c00 == 0x7c00 && h&0x3ff != 0 {
			continue // NaN payloads need not be preserved bit-exactly
		}
		f := To32(h)
		back := From32(f)
		if back != h {
			t.Fatalf("round trip failed: %#04x -> %v -> %#04x", h, f, back)
		}
	}
}

// TestRoundErrorBound: FP16 rounding of a float32 in the normal half range
// must be within half a ULP (relative error <= 2^-11).
func TestRoundErrorBound(t *testing.T) {
	check := func(seed int64) bool {
		f := float32(math.Abs(float64(seed%1000000))/1000.0 + 0.001) // 0.001..1000
		r := Round(f)
		rel := math.Abs(float64(r-f)) / math.Abs(float64(f))
		return rel <= 1.0/2048.0+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMonotone: conversion preserves ordering of representable magnitudes.
func TestMonotone(t *testing.T) {
	prev := To32(0)
	for i := 1; i < 0x7c00; i++ {
		cur := To32(F16(i))
		if cur <= prev {
			t.Fatalf("To32 not monotone at %#04x: %v <= %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestSliceHelpers(t *testing.T) {
	xs := []float32{0, 1, -2.5, 0.1, 1000}
	hs := FromSlice(xs)
	ys := ToSlice(hs)
	if len(ys) != len(xs) {
		t.Fatal("length mismatch")
	}
	for i := range xs {
		if math.Abs(float64(ys[i]-xs[i])) > math.Abs(float64(xs[i]))/1024+1e-7 {
			t.Errorf("slice round trip too lossy at %d: %v -> %v", i, xs[i], ys[i])
		}
	}
	dst := make([]float32, len(hs))
	ToSliceInto(dst, hs)
	for i := range dst {
		if dst[i] != ys[i] {
			t.Fatal("ToSliceInto disagrees with ToSlice")
		}
	}
}

func TestToSliceIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ToSliceInto(make([]float32, 2), make([]F16, 3))
}

func TestBytes(t *testing.T) {
	if Bytes(10) != 20 {
		t.Fatalf("Bytes(10) = %d", Bytes(10))
	}
}

// TestTableMatchesArithmetic: the widening table holds exactly the
// arithmetic conversion's bits for all 65,536 patterns, NaN payloads
// included.
func TestTableMatchesArithmetic(t *testing.T) {
	for i := 0; i <= 0xffff; i++ {
		h := F16(i)
		if got, want := math.Float32bits(To32(h)), math.Float32bits(to32(h)); got != want {
			t.Fatalf("To32(%#04x) bits %#08x, arithmetic %#08x", i, got, want)
		}
	}
}

// TestFusedKernelsMatchWidenThenCompute: Dot and Axpy give the same bits
// as widening a row first and running the float32 loops over it (the
// path FP16 attention used before the fused kernels).
func TestFusedKernelsMatchWidenThenCompute(t *testing.T) {
	const n = 37
	q := make([]float32, n)
	h := make([]F16, n)
	for i := range q {
		q[i] = float32(math.Sin(float64(i)*1.7)) * 3
		h[i] = F16(uint16(i*2749+13) &^ 0x4000) // finite, spread over exponents and signs
	}
	row := ToSlice(h)
	var want float64
	for i := range q {
		want += float64(q[i]) * float64(row[i])
	}
	if got := Dot(q, h); math.Float32bits(got) != math.Float32bits(float32(want)) {
		t.Fatalf("Dot = %v, widen-then-dot %v", got, float32(want))
	}
	y1 := append([]float32(nil), q...)
	y2 := append([]float32(nil), q...)
	Axpy(0.3711, h, y1)
	for i := range y2 {
		y2[i] += float32(0.3711 * row[i])
	}
	for i := range y1 {
		if math.Float32bits(y1[i]) != math.Float32bits(y2[i]) {
			t.Fatalf("Axpy[%d] = %v, widen-then-axpy %v", i, y1[i], y2[i])
		}
	}
	for _, f := range []func(){
		func() { Dot(q[:3], h[:4]) },
		func() { Axpy(1, h[:4], q[:3]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected length-mismatch panic")
				}
			}()
			f()
		}()
	}
}
