package kvcache

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/rngx"
)

// goldenAttend pins the exact float32 bits Cache.Attend produces, per
// geometry and seal option, to hashes recorded before any kernel
// rewrite. Every other differential in the repo compares two paths that
// share the same kernels, so only a cross-commit pin like this one can
// see a kernel change a bit. A kernel change that moves any of these
// hashes changed the arithmetic (operation order, rounding, fusion) and
// must be fixed, not re-pinned.
var goldenAttend = map[string]string{
	"served-48x32/atom":                   "ee86ba28bbec9c9f",
	"served-48x32/kivi-cocktail":          "e89197461e4eb8ab",
	"served-48x32/kvquant":                "65a6daf882e3c180",
	"served-48x32/pt-pt-cb":               "2b273b31c3652acf",
	"served-48x32/pc-pc":                  "50f671ae661a7ce8",
	"served-48x32/pc-pc-cb":               "658df2ab97a334f9",
	"served-48x32/pt-pc":                  "2f747515fe32646e",
	"served-48x32/pt-pc-cb":               "e2e16a03d6577b63",
	"odd-33x32/atom":                      "692d07cac4c7319f",
	"odd-33x32/kivi-cocktail":             "6847efad16a0369d",
	"odd-33x32/kvquant":                   "d3f898889e0b4d2f",
	"odd-33x32/pt-pt-cb":                  "a4bd21c14986edf1",
	"odd-33x32/pc-pc":                     "bd74a3736ffa2cba",
	"odd-33x32/pc-pc-cb":                  "2e1d15e165678919",
	"odd-33x32/pt-pc":                     "5ffff7fbaa2b2795",
	"odd-33x32/pt-pc-cb":                  "12c697936a92912c",
	"tiny-7x5/atom":                       "65d1a93f64c182d5",
	"tiny-7x5/kivi-cocktail":              "dcfe6308bb4603c0",
	"tiny-7x5/kvquant":                    "21e1201d979669d0",
	"tiny-7x5/pt-pt-cb":                   "e7495966acc1117c",
	"tiny-7x5/pc-pc":                      "5a1a70bcbe075d2a",
	"tiny-7x5/pc-pc-cb":                   "0485aea1c66b19da",
	"tiny-7x5/pt-pc":                      "583fbbb638e98063",
	"tiny-7x5/pt-pc-cb":                   "cee3d23e332eb063",
	"wide-300x32/atom":                    "684418b2f23a7e2a",
	"wide-300x32/kivi-cocktail":           "d7cd05e66be58db7",
	"wide-300x32/kvquant":                 "67dde8518c1f8d0e",
	"wide-300x32/pt-pt-cb":                "0163329dd62eca4b",
	"wide-300x32/pc-pc":                   "2fcbd8c25eea2815",
	"wide-300x32/pc-pc-cb":                "a3f12bdca4eb2658",
	"wide-300x32/pt-pc":                   "20b860813e2cc01a",
	"wide-300x32/pt-pc-cb":                "9ffdf169c8254d1d",
	"group-over-rows-16x64/atom":          "f5c6d8fd1e4cecec",
	"group-over-rows-16x64/kivi-cocktail": "243d589f123a3d22",
	"group-over-rows-16x64/kvquant":       "877339c68dc6c9fe",
	"group-over-rows-16x64/pt-pt-cb":      "a69c1b47e9f1b43d",
	"group-over-rows-16x64/pc-pc":         "0fc9047be6120b08",
	"group-over-rows-16x64/pc-pc-cb":      "5b29f98dc8c95d97",
	"group-over-rows-16x64/pt-pc":         "804d1813e70f4eb6",
	"group-over-rows-16x64/pt-pc-cb":      "7b55ab19d1cf9d4b",
}

// goldenGeometry is one cache shape: HeadDim and GroupSize pick whether
// rows and groups are byte-aligned and whether groups are ragged; Tokens
// and ChunkSize pick whether segments are a multiple of the group size.
type goldenGeometry struct {
	name                           string
	headDim, group, tokens, chunks int
}

var goldenGeometries = []goldenGeometry{
	{"served-48x32", 48, 32, 300, 32},         // the model's head width, ragged FP16 tail chunk
	{"odd-33x32", 33, 32, 150, 20},            // odd Cols: INT4/INT2 rows straddle bytes
	{"tiny-7x5", 7, 5, 61, 6},                 // ragged groups along both axes
	{"wide-300x32", 300, 32, 45, 9},           // Cols beyond any stack scratch buffer
	{"group-over-rows-16x64", 16, 64, 90, 10}, // segments shorter than one group
}

// goldenSealOptions is every (K axis, V axis, codebook) combination; the
// labels name the methods that seal with each.
var goldenSealOptions = []struct {
	name string
	opts SealOptions
}{
	{"atom", SealOptions{KAxis: quant.PerToken, VAxis: quant.PerToken}},
	{"kivi-cocktail", SealOptions{KAxis: quant.PerChannel, VAxis: quant.PerToken}},
	{"kvquant", SealOptions{KAxis: quant.PerChannel, VAxis: quant.PerToken, UseCodebook: true}},
	{"pt-pt-cb", SealOptions{KAxis: quant.PerToken, VAxis: quant.PerToken, UseCodebook: true}},
	{"pc-pc", SealOptions{KAxis: quant.PerChannel, VAxis: quant.PerChannel}},
	{"pc-pc-cb", SealOptions{KAxis: quant.PerChannel, VAxis: quant.PerChannel, UseCodebook: true}},
	{"pt-pc", SealOptions{KAxis: quant.PerToken, VAxis: quant.PerChannel}},
	{"pt-pc-cb", SealOptions{KAxis: quant.PerToken, VAxis: quant.PerChannel, UseCodebook: true}},
}

// goldenPlans covers FP16-only, single-precision, reordered and
// interleaved mixed plans, INT8, and scattered token-level overrides.
func goldenPlans(n, cs int) map[string]*Plan {
	mixedTok := mixedPlan(n, cs, false)
	mixedTok.TokenPrec = make([]Precision, n)
	for t := range mixedTok.TokenPrec {
		mixedTok.TokenPrec[t] = []Precision{INT4, INT4, INT2, FP16, INT8, INT4, INT2}[t%7]
	}
	return map[string]*Plan{
		"fp16":      UniformPlan(n, cs, FP16, true),
		"int4":      UniformPlan(n, cs, INT4, true),
		"int2":      UniformPlan(n, cs, INT2, false),
		"int8":      UniformPlan(n, cs, INT8, false),
		"mixed":     mixedPlan(n, cs, true),
		"mixed-nr":  mixedPlan(n, cs, false),
		"token-mix": mixedTok,
	}
}

// attendBits runs Attend for every (layer, head) under three queries and
// folds the output bits into h; the scale is an awkward non-power-of-two
// so score rounding is exercised.
func attendBits(h interface{ Write([]byte) (int, error) }, c *Cache, r *rngx.RNG) {
	d := c.cfg.HeadDim
	out := make([]float32, d)
	var buf [4]byte
	for l := 0; l < c.cfg.Layers; l++ {
		for hd := 0; hd < c.cfg.Heads; hd++ {
			for k := 0; k < 3; k++ {
				q := r.GaussianVec(d, 1)
				c.Attend(l, hd, q, 0.37, out)
				for _, v := range out {
					bits := math.Float32bits(v)
					buf[0], buf[1], buf[2], buf[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
					h.Write(buf[:])
				}
			}
		}
	}
}

// goldenAttendHashes computes the pinned hash for every geometry × seal
// option: each covers all golden plans, first over the sealed context
// alone and then with FP16 decode-tail tokens appended.
func goldenAttendHashes() map[string]string {
	got := map[string]string{}
	for _, g := range goldenGeometries {
		cfg := Config{Layers: 2, Heads: 2, HeadDim: g.headDim}
		b := fillBuilder(uint64(g.headDim*1000+g.tokens), cfg, g.tokens)
		plans := goldenPlans(g.tokens, g.chunks)
		for _, so := range goldenSealOptions {
			h := fnv.New64a()
			opts := so.opts
			opts.GroupSize = g.group
			for _, pname := range []string{"fp16", "int4", "int2", "int8", "mixed", "mixed-nr", "token-mix"} {
				c, err := b.SealWith(plans[pname], opts)
				if err != nil {
					panic(err)
				}
				r := rngx.New(uint64(len(pname)) + 77)
				attendBits(h, c, r)
				for tok := 0; tok < 5; tok++ {
					c.BeginToken()
					for l := 0; l < cfg.Layers; l++ {
						for hd := 0; hd < cfg.Heads; hd++ {
							c.AppendTail(l, hd, r.GaussianVec(g.headDim, 1), r.GaussianVec(g.headDim, 1))
						}
					}
				}
				attendBits(h, c, r)
			}
			got[g.name+"/"+so.name] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	return got
}

func TestGoldenAttendBits(t *testing.T) {
	got := goldenAttendHashes()
	for key, want := range goldenAttend {
		if got[key] != want {
			t.Errorf("%s: Attend bits hash %s, pinned %s", key, got[key], want)
		}
	}
	if len(got) != len(goldenAttend) {
		t.Errorf("computed %d hashes, %d pinned", len(got), len(goldenAttend))
	}
	if t.Failed() {
		for _, g := range goldenGeometries {
			for _, so := range goldenSealOptions {
				key := g.name + "/" + so.name
				t.Logf("%q: %q,", key, got[key])
			}
		}
	}
}
