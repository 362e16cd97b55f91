package kvcache

// codec.go is the binary serialization of a sealed Cache, the payload
// format of the sealed-cache spill tier (internal/sessioncache
// persistence). A round trip reproduces the cache bit-exactly: the same
// Config and Plan, the same packed quantized codes and FP16 scale/zero
// metadata per segment, the same FP16 tail — so SizeBytes and every
// Attend result are identical to the original, which is what lets a
// warm-restarted server keep its byte-identical-answers guarantee.
//
// The format is little-endian with a leading version byte; every length
// is validated against the declared geometry before allocation, so
// corrupt input yields an error, never a panic. The spill layer above
// adds its own magic/CRC framing — this codec only defines the payload.

import (
	"encoding/binary"
	"errors"

	"repro/internal/f16"
	"repro/internal/quant"
)

// codecVersion is the payload format version; bumped on any layout
// change so old artifacts fail cleanly (the spill layer treats a decode
// error as a cache miss).
const codecVersion = 1

// errCodec is returned for any malformed Cache serialization.
var errCodec = errors.New("kvcache: malformed cache encoding")

// codecMaxLen bounds decoded counts so a corrupt length cannot drive a
// giant allocation before the cross-checks run.
const codecMaxLen = 1 << 24

func appendU32(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(v))
}

func appendF16s(buf []byte, vals []f16.F16) []byte {
	buf = appendU32(buf, len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(v))
	}
	return buf
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// MarshalBinary serializes the sealed cache, tail included. The sealed
// segments are immutable, so concurrent marshals of one pristine cache
// are safe; marshalling a cache another goroutine is decoding on is not
// (same rule as every other Cache method).
func (c *Cache) MarshalBinary() ([]byte, error) {
	buf := []byte{codecVersion}
	// Config.
	buf = appendU32(buf, c.cfg.Layers)
	buf = appendU32(buf, c.cfg.Heads)
	buf = appendU32(buf, c.cfg.HeadDim)
	buf = appendU32(buf, c.cfg.GroupSize)
	buf = append(buf, byte(c.cfg.KAxis), byte(c.cfg.VAxis))
	buf = appendBool(buf, c.cfg.UseCodebook)
	// Plan.
	buf = appendU32(buf, c.plan.NumTokens)
	buf = appendU32(buf, c.plan.ChunkSize)
	buf = appendU32(buf, len(c.plan.ChunkPrec))
	for _, p := range c.plan.ChunkPrec {
		buf = append(buf, byte(p))
	}
	buf = appendBool(buf, c.plan.TokenPrec != nil)
	for _, p := range c.plan.TokenPrec {
		buf = append(buf, byte(p))
	}
	buf = appendBool(buf, c.plan.Reorder)
	// Segments, [layer*heads+head] in index order.
	for _, segs := range c.segs {
		buf = appendU32(buf, len(segs))
		for _, seg := range segs {
			buf = append(buf, byte(seg.prec))
			buf = appendU32(buf, seg.tokens)
			if seg.prec == FP16 {
				buf = appendF16s(buf, seg.fk)
				buf = appendF16s(buf, seg.fv)
			} else {
				buf = seg.qk.AppendBinary(buf)
				buf = seg.qv.AppendBinary(buf)
			}
		}
	}
	// FP16 decode tail (empty for the pristine caches session stores
	// persist, but the format carries it so the codec round-trips any
	// cache).
	buf = appendU32(buf, c.tailTokens)
	for idx := range c.tailK {
		buf = appendF16s(buf, c.tailK[idx])
		buf = appendF16s(buf, c.tailV[idx])
	}
	return buf, nil
}

// decoder walks a serialized cache, tracking a sticky error: after any
// short read every subsequent call returns zero values, and the caller
// checks err once at the end of each geometry stage.
type decoder struct {
	rest []byte
	err  error
}

func (d *decoder) u8() byte {
	if d.err != nil || len(d.rest) < 1 {
		d.err = errCodec
		return 0
	}
	b := d.rest[0]
	d.rest = d.rest[1:]
	return b
}

func (d *decoder) bool() bool { return d.u8() == 1 }

func (d *decoder) u32() int {
	if d.err != nil || len(d.rest) < 4 {
		d.err = errCodec
		return 0
	}
	v := binary.LittleEndian.Uint32(d.rest)
	d.rest = d.rest[4:]
	if v > codecMaxLen {
		d.err = errCodec
		return 0
	}
	return int(v)
}

func (d *decoder) f16s() []f16.F16 {
	n := d.u32()
	if d.err != nil || len(d.rest) < 2*n {
		d.err = errCodec
		return nil
	}
	out := make([]f16.F16, n)
	for i := range out {
		out[i] = f16.F16(binary.LittleEndian.Uint16(d.rest[2*i:]))
	}
	d.rest = d.rest[2*n:]
	return out
}

func (d *decoder) tensor() *quant.Tensor {
	if d.err != nil {
		return nil
	}
	t, rest, err := quant.DecodeTensor(d.rest)
	if err != nil {
		d.err = errCodec
		return nil
	}
	d.rest = rest
	return t
}

// UnmarshalCache decodes a MarshalBinary payload, validating geometry at
// every stage (config sanity, plan consistency, per-segment token and row
// counts). The result is a fully functional sealed cache with its own
// scratch state, ready to Fork and Attend.
func UnmarshalCache(data []byte) (*Cache, error) {
	d := &decoder{rest: data}
	if d.u8() != codecVersion {
		return nil, errCodec
	}
	cfg := Config{
		Layers:    d.u32(),
		Heads:     d.u32(),
		HeadDim:   d.u32(),
		GroupSize: d.u32(),
		KAxis:     quant.Axis(d.u8()),
		VAxis:     quant.Axis(d.u8()),
	}
	cfg.UseCodebook = d.bool()
	if d.err != nil || cfg.validate() != nil {
		return nil, errCodec
	}
	if a := cfg.KAxis; a != quant.PerToken && a != quant.PerChannel {
		return nil, errCodec
	}
	if a := cfg.VAxis; a != quant.PerToken && a != quant.PerChannel {
		return nil, errCodec
	}
	plan := &Plan{NumTokens: d.u32(), ChunkSize: d.u32()}
	nChunks := d.u32()
	for i := 0; i < nChunks && d.err == nil; i++ {
		plan.ChunkPrec = append(plan.ChunkPrec, Precision(d.u8()))
	}
	if d.bool() {
		for i := 0; i < plan.NumTokens && d.err == nil; i++ {
			plan.TokenPrec = append(plan.TokenPrec, Precision(d.u8()))
		}
	}
	plan.Reorder = d.bool()
	if d.err != nil || plan.Validate() != nil || !validPrecs(plan.ChunkPrec) || !validPrecs(plan.TokenPrec) {
		return nil, errCodec
	}
	n := cfg.Layers * cfg.Heads
	c := &Cache{
		cfg:   cfg,
		plan:  plan,
		segs:  make([][]segment, n),
		tailK: make([][]f16.F16, n),
		tailV: make([][]f16.F16, n),
	}
	for idx := 0; idx < n; idx++ {
		nSegs := d.u32()
		total := 0
		for si := 0; si < nSegs && d.err == nil; si++ {
			seg := segment{prec: Precision(d.u8()), tokens: d.u32()}
			if d.err != nil {
				break
			}
			total += seg.tokens
			switch seg.prec {
			case FP16:
				seg.fk = d.f16s()
				seg.fv = d.f16s()
				if d.err == nil && (len(seg.fk) != seg.tokens*cfg.HeadDim || len(seg.fv) != seg.tokens*cfg.HeadDim) {
					return nil, errCodec
				}
			case INT2, INT4, INT8:
				seg.qk = d.tensor()
				seg.qv = d.tensor()
				if d.err == nil {
					for _, t := range []*quant.Tensor{seg.qk, seg.qv} {
						if t.Rows != seg.tokens || t.Cols != cfg.HeadDim || int(t.Bits) != seg.prec.Bits() {
							return nil, errCodec
						}
					}
				}
			default:
				return nil, errCodec
			}
			c.segs[idx] = append(c.segs[idx], seg)
		}
		if d.err != nil {
			return nil, errCodec
		}
		if total != plan.NumTokens {
			return nil, errCodec
		}
	}
	c.tailTokens = d.u32()
	for idx := 0; idx < n; idx++ {
		c.tailK[idx] = d.f16s()
		c.tailV[idx] = d.f16s()
		if d.err == nil && (len(c.tailK[idx]) != c.tailTokens*cfg.HeadDim || len(c.tailV[idx]) != c.tailTokens*cfg.HeadDim) {
			return nil, errCodec
		}
	}
	if d.err != nil || len(d.rest) != 0 {
		return nil, errCodec
	}
	return c, nil
}

// validPrecs reports whether every precision label is a known one.
func validPrecs(ps []Precision) bool {
	for _, p := range ps {
		if p > FP16 {
			return false
		}
	}
	return true
}
