package quant

// kernels.go holds the fused dequantize-multiply kernels (the paper's
// fqm) that segment attention runs on every decode and query-feed step.
//
// Kernel contract: every kernel performs exactly the float operations of
// the per-element reference, in the same order — one dequantized value
// zero + level·scale·maxCode per element, then a float64-accumulated dot
// product or a float32 axpy (per-token uniform scores keep their float64
// affine form, see affineDot) — so outputs are bit-identical to the
// reference and across commits. What the kernels save is the work around
// those operations: scales and zeros are widened from FP16 once per group
// instead of once per element, levels come from a table instead of a
// division, and packed codes are unpacked a word at a time. Float32
// intermediates are written with explicit conversions, which the Go spec
// guarantees are rounded, so no platform may fuse them into an FMA.

import (
	"encoding/binary"

	"repro/internal/f16"
)

// stackCols is the widest row whose kernel scratch (unpacked codes,
// widened scales and zeros, query group sums) lives on the stack; wider
// tensors allocate it per call.
const stackCols = 128

// Uniform level tables: uniformLevelsN[c] is float32(c)/float32(2^N-1),
// exactly the normalized level the uniform grid assigns code c.
var (
	uniformLevels2 = uniformGrid(INT2.Levels())
	uniformLevels4 = uniformGrid(INT4.Levels())
	uniformLevels8 = uniformGrid(INT8.Levels())
)

// levels returns the code → normalized level table: the codebook when
// present, else the uniform grid of the tensor's bitwidth.
func (t *Tensor) levels() []float32 {
	if t.codebook != nil {
		return t.codebook
	}
	switch t.Bits {
	case INT2:
		return uniformLevels2
	case INT4:
		return uniformLevels4
	}
	return uniformLevels8
}

func (t *Tensor) maxCode() float32 { return float32(t.Bits.Levels() - 1) }

// int2Quads[b] holds byte b's four INT2 codes, one per byte,
// little-endian.
var int2Quads [256]uint32

func init() {
	for b := range int2Quads {
		int2Quads[b] = uint32(b&3) | uint32(b>>2&3)<<8 | uint32(b>>4&3)<<16 | uint32(b>>6)<<24
	}
}

// rowCodes unpacks the codes of row i into dst (len Cols), one code per
// byte. A row that starts on a byte boundary is unpacked a word at a
// time: four INT4 bytes are spread into eight codes with shifts and
// masks, and each INT2 byte expands to four codes through int2Quads. A
// ragged row (odd Cols at INT4, Cols not a multiple of 4 at INT2) and
// the last few codes of any row fall back to Code.
func (t *Tensor) rowCodes(dst []uint8, i int) {
	cols := len(dst)
	base := i * cols
	bit := base * int(t.Bits)
	j := 0
	if bit%8 == 0 {
		src := t.codes[bit/8:]
		switch t.Bits {
		case INT8:
			j = copy(dst, src[:cols])
		case INT4:
			for ; j+8 <= cols; j += 8 {
				x := uint64(binary.LittleEndian.Uint32(src[j/2:]))
				x = (x | x<<16) & 0x0000ffff0000ffff
				x = (x | x<<8) & 0x00ff00ff00ff00ff
				x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
				binary.LittleEndian.PutUint64(dst[j:], x)
			}
		case INT2:
			for ; j+4 <= cols; j += 4 {
				binary.LittleEndian.PutUint32(dst[j:], int2Quads[src[j/4]])
			}
		}
	}
	for ; j < cols; j++ {
		dst[j] = uint8(t.Code(base + j))
	}
}

// dequant is the one per-element dequantization every kernel shares.
func dequant(lv, sc, zr, maxCode float32) float32 {
	return zr + float32(float32(lv*sc)*maxCode)
}

// The inner loops below are small leaf functions on purpose: each keeps
// its few live values in registers, where one fused loop over all groups
// spills on amd64.

// dotGroup continues the float64 dot-product accumulator s over one
// per-token group of columns sharing scale sc and zero zr.
func dotGroup(s float64, q []float32, codes []uint8, lv []float32, sc, zr, maxCode float32) float64 {
	q = q[:len(codes)]
	for j, c := range codes {
		s += float64(q[j]) * float64(dequant(lv[c], sc, zr, maxCode))
	}
	return s
}

// dotChannels is dot(q, row) for a per-channel row whose columns' widened
// scales and zeros are sc and zr.
func dotChannels(q []float32, codes []uint8, lv, sc, zr []float32, maxCode float32) float32 {
	q, sc, zr = q[:len(codes)], sc[:len(codes)], zr[:len(codes)]
	var s float64
	for j, c := range codes {
		s += float64(q[j]) * float64(dequant(lv[c], sc[j], zr[j], maxCode))
	}
	return float32(s)
}

// codeDot is the float64 dot product of q with raw integer codes.
func codeDot(q []float32, codes []uint8) float64 {
	q = q[:len(codes)]
	var s float64
	for j, c := range codes {
		s += float64(q[j]) * float64(c)
	}
	return s
}

// affineDot is dot(q, row) for a per-token uniform row: per group, the
// float64 code dot product, then scale and zero applied once as
// codeDot·scale + qSum·zero, with sums[k] the query's sum over group k.
func affineDot(q []float32, codes []uint8, sums []float64, scales, zeros []f16.F16, g int) float32 {
	var s float64
	for k := range scales {
		j0 := k * g
		j1 := min(j0+g, len(codes))
		cd := codeDot(q[j0:j1], codes[j0:j1])
		s += float64(cd*float64(f16.To32(scales[k]))) + float64(sums[k]*float64(f16.To32(zeros[k])))
	}
	return float32(s)
}

// querySums fills sums[k] with the float64 sum of q over column group k,
// the query half of affineDot; it depends on q alone, so ScoresInto
// computes it once for all rows.
func querySums(sums []float64, q []float32, g int) {
	for k := range sums {
		j0 := k * g
		var s float64
		for _, v := range q[j0:min(j0+g, len(q))] {
			s += float64(v)
		}
		sums[k] = s
	}
}

// axpyGroup adds alpha·dequant to dst over one per-token group of
// columns sharing scale sc and zero zr.
func axpyGroup(dst []float32, alpha float32, codes []uint8, lv []float32, sc, zr, maxCode float32) {
	dst = dst[:len(codes)]
	for j, c := range codes {
		dst[j] += float32(alpha * dequant(lv[c], sc, zr, maxCode))
	}
}

// packedRow returns the packed code bytes of row i when every INT4 or
// INT2 row fills whole bytes (Cols·bits a multiple of 8, so each row
// also starts on a byte boundary): the layout axpyGroup4/axpyGroup2 read
// in place. ok is false for INT8 and for ragged rows, which go through
// rowCodes.
func (t *Tensor) packedRow(i int) (src []byte, ok bool) {
	rowBytes := t.Cols * int(t.Bits) / 8
	if t.Bits == INT8 || t.Cols*int(t.Bits)%8 != 0 {
		return nil, false
	}
	return t.codes[i*rowBytes : (i+1)*rowBytes], true
}

// axpyGroup4 and axpyGroup2 are axpyGroup reading two INT4 or four INT2
// codes straight from each packed byte, in column order. Fused with the
// unpack they skip rowCodes' stores and reloads: measured 12% (INT4) and
// 17% (INT2) faster per row on the served per-token V layout. The same
// fusion measured no gain on the per-channel score loop, which is bound
// by its float64 sum, so scores keep the unpack pass.
func axpyGroup4(dst []float32, alpha float32, src []byte, lv *[16]float32, sc, zr, maxCode float32) {
	dst = dst[:2*len(src)]
	for k, b := range src {
		d := dst[2*k : 2*k+2 : 2*k+2]
		d[0] += float32(alpha * dequant(lv[b&15], sc, zr, maxCode))
		d[1] += float32(alpha * dequant(lv[b>>4], sc, zr, maxCode))
	}
}

func axpyGroup2(dst []float32, alpha float32, src []byte, lv *[4]float32, sc, zr, maxCode float32) {
	dst = dst[:4*len(src)]
	for k, b := range src {
		d := dst[4*k : 4*k+4 : 4*k+4]
		d[0] += float32(alpha * dequant(lv[b&3], sc, zr, maxCode))
		d[1] += float32(alpha * dequant(lv[b>>2&3], sc, zr, maxCode))
		d[2] += float32(alpha * dequant(lv[b>>4&3], sc, zr, maxCode))
		d[3] += float32(alpha * dequant(lv[b>>6], sc, zr, maxCode))
	}
}

// axpyChannels adds alpha·dequant to dst for a per-channel row whose
// columns' FP16 scales and zeros are scales and zeros.
func axpyChannels(dst []float32, alpha float32, codes []uint8, lv []float32, scales, zeros []f16.F16, maxCode float32) {
	dst, scales, zeros = dst[:len(codes)], scales[:len(codes)], zeros[:len(codes)]
	for j, c := range codes {
		dst[j] += float32(alpha * dequant(lv[c], f16.To32(scales[j]), f16.To32(zeros[j]), maxCode))
	}
}

// rowGroups is the number of per-token scale groups in one row.
func (t *Tensor) rowGroups() int { return (t.Cols + t.GroupSize - 1) / t.GroupSize }

// kernelScratch is the per-call working set of the multi-row kernels.
type kernelScratch struct {
	codes  [stackCols]uint8
	sc, zr [stackCols]float32
	sums   [stackCols]float64
}

// buffers returns scratch slices of the tensor's width, from s when the
// tensor fits, freshly allocated otherwise.
func (t *Tensor) buffers(s *kernelScratch) (codes []uint8, sc, zr []float32, sums []float64) {
	n := t.Cols
	if n > stackCols {
		return make([]uint8, n), make([]float32, n), make([]float32, n), make([]float64, n)
	}
	return s.codes[:n], s.sc[:n], s.zr[:n], s.sums[:n]
}

// DotRow computes dot(q, dequant(row i)) without materializing the row —
// the inner kernel of the paper's fqm (FP16 × quantized matrix multiply).
func (t *Tensor) DotRow(q []float32, i int) float32 {
	if len(q) != t.Cols {
		panic("quant: DotRow length mismatch")
	}
	var s [1]float32
	t.scores(s[:], q, i)
	return s[0]
}

// ScoresInto computes dst[i] = dot(q, row_i) for every row (fqm against a
// transposed K block). dst must have length Rows.
func (t *Tensor) ScoresInto(dst []float32, q []float32) {
	if len(dst) != t.Rows {
		panic("quant: ScoresInto length mismatch")
	}
	if len(q) != t.Cols {
		panic("quant: ScoresInto query length mismatch")
	}
	t.scores(dst, q, 0)
}

// scores writes the scores of rows first..first+len(dst)-1 into dst.
// Per-channel scales and zeros are widened once per row block and reused
// for every row of the block.
func (t *Tensor) scores(dst, q []float32, first int) {
	var s kernelScratch
	codes, sc, zr, sums := t.buffers(&s)
	g := t.GroupSize
	lv, maxCode := t.levels(), t.maxCode()
	if t.Axis == PerChannel {
		for r := range dst {
			i := first + r
			if r == 0 || i%g == 0 {
				base := (i / g) * t.Cols
				for j := range sc {
					sc[j] = f16.To32(t.scales[base+j])
					zr[j] = f16.To32(t.zeros[base+j])
				}
			}
			t.rowCodes(codes, i)
			dst[r] = dotChannels(q, codes, lv, sc, zr, maxCode)
		}
		return
	}
	ng := t.rowGroups()
	affine := t.codebook == nil
	if affine {
		sums = sums[:ng]
		querySums(sums, q, g)
	}
	for r := range dst {
		i := first + r
		scales, zeros := t.scales[i*ng:(i+1)*ng], t.zeros[i*ng:(i+1)*ng]
		t.rowCodes(codes, i)
		if affine {
			dst[r] = affineDot(q, codes, sums, scales, zeros, g)
			continue
		}
		var acc float64
		for k := range scales {
			j0, j1 := k*g, min(k*g+g, t.Cols)
			acc = dotGroup(acc, q[j0:j1], codes[j0:j1], lv, f16.To32(scales[k]), f16.To32(zeros[k]), maxCode)
		}
		dst[r] = float32(acc)
	}
}

// AxpyRow accumulates dst += alpha * dequant(row i) — the V-side fqm
// kernel. Per-token scales and zeros are widened once per column group.
func (t *Tensor) AxpyRow(dst []float32, alpha float32, i int) {
	if len(dst) != t.Cols {
		panic("quant: AxpyRow length mismatch")
	}
	lv, maxCode := t.levels(), t.maxCode()
	g := t.GroupSize
	// Per-token rows whose groups also fill whole bytes are read in
	// place; the rest are unpacked first.
	src, packed := t.packedRow(i)
	packed = packed && t.Axis == PerToken && g*int(t.Bits)%8 == 0
	var buf [stackCols]uint8
	var codes []uint8
	if !packed {
		codes = buf[:]
		if t.Cols > stackCols {
			codes = make([]uint8, t.Cols)
		}
		codes = codes[:t.Cols]
		t.rowCodes(codes, i)
	}
	if t.Axis == PerChannel {
		base := (i / g) * t.Cols
		axpyChannels(dst, alpha, codes, lv, t.scales[base:], t.zeros[base:], maxCode)
		return
	}
	ng := t.rowGroups()
	scales, zeros := t.scales[i*ng:(i+1)*ng], t.zeros[i*ng:(i+1)*ng]
	for k := range scales {
		j0, j1 := k*g, min(k*g+g, t.Cols)
		sc, zr := f16.To32(scales[k]), f16.To32(zeros[k])
		switch {
		case packed && t.Bits == INT4:
			axpyGroup4(dst[j0:j1], alpha, src[j0/2:j1/2], (*[16]float32)(lv), sc, zr, maxCode)
		case packed:
			axpyGroup2(dst[j0:j1], alpha, src[j0/4:j1/4], (*[4]float32)(lv), sc, zr, maxCode)
		default:
			axpyGroup(dst[j0:j1], alpha, codes[j0:j1], lv, sc, zr, maxCode)
		}
	}
}
