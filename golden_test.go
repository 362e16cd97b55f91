package cocktail

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/rngx"
)

// goldenAnswers pins, per method, a hash over every dataset's answer
// words, plan footprint and the float32 bits of Cache.Attend over the
// decoded cache (sealed context plus the query and answer tail), recorded
// before any kernel rewrite. The session, batching and cache
// differentials compare paths that share one set of kernels; this pin is
// what catches a kernel change that moves a bit across commits.
var goldenAnswers = map[string]string{
	"FP16":     "b53806451848f012",
	"Atom":     "dcc99c1ac388d580",
	"KIVI":     "bf6dcd0c276db47d",
	"KVQuant":  "848bc5660cfa6641",
	"Cocktail": "c6e9fa0bfd2a59c3",
}

func goldenAnswerHash(t *testing.T, method string) string {
	p, err := New(Config{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, ds := range Datasets() {
		s, err := p.NewSample(ds.Name, 11)
		if err != nil {
			t.Fatal(err)
		}
		turn, err := p.StartAnswer(s.Context, s.Query)
		if err != nil {
			t.Fatal(err)
		}
		res := turn.Result()
		fmt.Fprintf(h, "%s|%q|%d|", ds.Name, res.Answer, res.Plan.ContextKVBytes)
		cfg := turn.cache.Config()
		r := rngx.New(5)
		out := make([]float32, cfg.HeadDim)
		for l := 0; l < cfg.Layers; l++ {
			for hd := 0; hd < cfg.Heads; hd++ {
				turn.cache.Attend(l, hd, r.GaussianVec(cfg.HeadDim, 1), 0.37, out)
				for _, v := range out {
					bits := math.Float32bits(v)
					buf[0], buf[1], buf[2], buf[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
					h.Write(buf[:])
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenAnswerBits(t *testing.T) {
	for _, method := range Methods() {
		got := goldenAnswerHash(t, method)
		if want := goldenAnswers[method]; got != want {
			t.Errorf("%q: %q, // pinned %q", method, got, want)
		}
	}
}
