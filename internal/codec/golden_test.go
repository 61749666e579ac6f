package codec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pbpair/internal/codec"
	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/motion"
	"pbpair/internal/resilience"
	"pbpair/internal/synth"
	"pbpair/internal/video"
)

// TestGoldenPipelineKernels pins the whole encode→decode pipeline
// through every hot kernel at once: half-pel search and compensation
// (SWAR SAD + row interpolation), DCT/IDCT (folded butterflies),
// bitstream writer/reader (64-bit accumulator) and VLC decode (lookup
// table). The digests were captured with the pre-rewrite scalar
// kernels, so this test is the end-to-end proof that the kernel
// rewrites are bit-exact: both the emitted bitstream and the decoded
// reconstruction must be byte-identical to the seed implementation.
func TestGoldenPipelineKernels(t *testing.T) {
	cfg := codec.Config{
		Width: video.QCIFWidth, Height: video.QCIFHeight,
		QP: 6, SearchRange: 7, HalfPel: true, Deblock: true,
		Planner: resilience.NewNone(),
	}
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := codec.NewDecoder(cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	hBits := sha256.New()
	hRec := sha256.New()
	src := synth.New(synth.RegimeForeman)
	for k := 0; k < 6; k++ {
		ef, err := enc.EncodeFrame(src.Frame(k))
		if err != nil {
			t.Fatal(err)
		}
		hBits.Write(ef.Data)
		res, err := dec.DecodeFrame(ef.Data)
		if err != nil {
			t.Fatal(err)
		}
		hRec.Write(res.Frame.Y)
		hRec.Write(res.Frame.Cb)
		hRec.Write(res.Frame.Cr)
	}
	const wantBits = "ef1ea3297365cd74792ea25b298568e5fb24382a4c4bf4f3564819ee8e42755c"
	const wantRec = "38fe40419103caa855f7504d7f77e89f3e41cf7edf2e3930eeaacce3bed254c4"
	if got := hex.EncodeToString(hBits.Sum(nil)); got != wantBits {
		t.Errorf("pipeline bitstream digest changed:\n got %s\nwant %s", got, wantBits)
	}
	if got := hex.EncodeToString(hRec.Sum(nil)); got != wantRec {
		t.Errorf("pipeline reconstruction digest changed:\n got %s\nwant %s", got, wantRec)
	}
}

// TestGoldenPipelinePBPAIR pins the probability-penalised motion
// search end to end. TestGoldenPipelineKernels runs a planner without
// a penalty, so this is the digest that covers PBPAIR's MEPenalty
// path: a live planner (α > 0, λ = 1) drives a full search at range 15
// (every vector within the penalty table's ±15) and range 20 (vectors
// beyond it take the direct relatedMin path). Besides the bitstream
// and the reconstruction, the digest covers the ME work tally
// (energy.Counters.SADCalls and SADPixelOps, frame by frame) and the
// planner's σ matrix after every frame, so a faster kernel or penalty
// that changed the counted work or a single σ would fail here too.
// The digests were recorded before the PSADBW kernel and the penalty
// table were introduced.
func TestGoldenPipelinePBPAIR(t *testing.T) {
	cases := []struct {
		name             string
		searchRange      int
		halfPel          bool
		wantBits, wantRe string
	}{
		{"range15", 15, false,
			"ba636df2f378d4be0c6a2c1eabf69b5b4b80e0f19e955d3f3b7487e52556ae46",
			"0cda532a675b2f18ba0e1c0eef194925fffd0dd0c939b866027a812dcb242187"},
		{"range20_halfpel", 20, true,
			"1d6bfd65373f7e70a39eeb7c13dacbd43ad8d6444e98cb0f2cd0b37798d54d6c",
			"c0a067be41a1eb7df1d7570420c28002f2ce3e5b5d9e2ea33bb5b0f53f602fd9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			planner, err := core.New(core.Config{
				Rows: video.QCIFHeight / video.MBSize, Cols: video.QCIFWidth / video.MBSize,
				IntraTh: 0.4, PLR: 0.1, Lambda: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var counters energy.Counters
			cfg := codec.Config{
				Width: video.QCIFWidth, Height: video.QCIFHeight,
				QP: 8, SearchRange: tc.searchRange, Search: motion.FullSearch,
				HalfPel: tc.halfPel, Planner: planner, Counters: &counters,
			}
			enc, err := codec.NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := codec.NewDecoder(cfg.Width, cfg.Height)
			if err != nil {
				t.Fatal(err)
			}
			hBits := sha256.New()
			hRec := sha256.New()
			src := synth.New(synth.RegimeForeman)
			var word [8]byte
			for k := 0; k < 8; k++ {
				ef, err := enc.EncodeFrame(src.Frame(k))
				if err != nil {
					t.Fatal(err)
				}
				hBits.Write(ef.Data)
				for _, v := range []int64{counters.SADCalls, counters.SADPixelOps} {
					binary.LittleEndian.PutUint64(word[:], uint64(v))
					hBits.Write(word[:])
				}
				for _, s := range planner.Sigma() {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(s))
					hBits.Write(word[:])
				}
				res, err := dec.DecodeFrame(ef.Data)
				if err != nil {
					t.Fatal(err)
				}
				hRec.Write(res.Frame.Y)
				hRec.Write(res.Frame.Cb)
				hRec.Write(res.Frame.Cr)
			}
			if got := hex.EncodeToString(hBits.Sum(nil)); got != tc.wantBits {
				t.Errorf("bitstream/work/σ digest changed:\n got %s\nwant %s", got, tc.wantBits)
			}
			if got := hex.EncodeToString(hRec.Sum(nil)); got != tc.wantRe {
				t.Errorf("reconstruction digest changed:\n got %s\nwant %s", got, tc.wantRe)
			}
		})
	}
}

// TestGoldenBitstream pins the bitstream format: a fixed input encoded
// with fixed settings must produce byte-identical output forever. Any
// intentional format change (new header field, different VLC, new
// prediction rule) must update these digests — which is the point:
// format changes should be deliberate, reviewed events, because they
// break decodability of previously written .pbps files.
func TestGoldenBitstream(t *testing.T) {
	// Deliberately diverse settings: default, half-pel, deblock.
	cases := []struct {
		name string
		mut  func(*codec.Config)
		want string
	}{
		{"baseline", func(*codec.Config) {},
			"1b5d2920721cece7d42a2571cf1bc0c6540b7923dd51bb07ffb8c3af467562ba"},
		{"halfpel", func(c *codec.Config) { c.HalfPel = true },
			"934cd926b746e4ad75152a6b5d472873bf4dd1813e52ee8a882da95e435b14a0"},
		{"deblock_qp20", func(c *codec.Config) { c.Deblock = true; c.QP = 20 },
			"75710abe3783793e11f86931b177fd777673b8ea6dccfd1de114092b2b168af8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := codec.Config{
				Width: video.QCIFWidth, Height: video.QCIFHeight,
				QP: 8, SearchRange: 7, Planner: resilience.NewNone(),
			}
			tc.mut(&cfg)
			enc, err := codec.NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			src := synth.New(synth.RegimeForeman)
			for k := 0; k < 4; k++ {
				ef, err := enc.EncodeFrame(src.Frame(k))
				if err != nil {
					t.Fatal(err)
				}
				h.Write(ef.Data)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.want {
				t.Errorf("bitstream digest changed:\n got %s\nwant %s\n"+
					"If this change is intentional, update the golden value "+
					"and note the format break in DESIGN.md.", got, tc.want)
			}
		})
	}
}
