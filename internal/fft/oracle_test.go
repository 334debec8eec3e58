package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// oracleSizes are the lengths the bitwise oracle pins: log2 n odd and even,
// from the transform that is one size-2 stage to one of several passes, and
// a length that takes Bluestein's algorithm.
var oracleSizes = []int{2, 4, 8, 12, 16, 32, 64, 128, 512}

// oracle is the sha256 of what each multi-axis entry point gives on
// testData, forward then inverse on the same buffer, per length. A change
// to the kernels that moves any bit of any output moves one of these.
var oracle = map[string]string{
	"Transform/2":   "1d793a68e388d68fe4558e10a25aa7c6a1c1f7935e2c7bf01405675642f3afd9",
	"Transform/4":   "1902f688601315bc0c6baf6045994bd6f60c0e78e223d9eeae4819b2abdef84a",
	"Transform/8":   "8f3b05757f0e305ebd19b591f77444e71ab11382f0409e5ad299ec92d3d90c48",
	"Transform/12":  "b2b7cfcdcb1fd352cb9b5e8f3d65c2e8f267d18fcb9603138b7a9adf7e4d8a5c",
	"Transform/16":  "fcc1d136a58fcec2585e620b773ecc54b0c5f2c1b9103dd6edbbd32962f8b3ff",
	"Transform/32":  "3a66f4ad44267a1793b8a937fff92f7b28f91f2c8035677634ce719da79a7511",
	"Transform/64":  "daea9da5d9f3c9d22dfe787705266d5ca087cef879e1f6205f28ab79fa50637f",
	"Transform/128": "678107461910fa5ec48f491e568ee597daa62bbcd5f105b33694a88c132a6856",
	"Transform/512": "d33ab92946bbee644dd5efd162e2ab3a5591cd59d9acd915b57bb85369fc53c2",
	"columns/2":     "d1e9b417aa015b05930cf749cfd81e3658707148b446321d4b3667dd95a745b4",
	"columns/4":     "df409a913003fbd68b6f31e11d6983de8316e006c8a931cece1e35efed7fe614",
	"columns/8":     "df876bc49a8764290f7dfc9b5ed091b00acb72a1c2e83f680f051bac60808d22",
	"columns/12":    "3d56309847b0c79dd4abd5b405c9025a1a97b307c5271c428e2d1b5ff9f299f9",
	"columns/16":    "fe559b1e338dd29b2da90f8eea0bf302e107f174fab4f4335b6103c12689749c",
	"columns/32":    "d753349966e608a0eeebd2c2fc1c3f0502c63f494bdddfb4d122c735fbd11b01",
	"columns/64":    "dae937476ffd17f7b221872ebcf96d3e13b7d37b6bbe1e86d95ac58ce6e19092",
	"columns/128":   "93aecd8ca3db0bcfe094809886d91b6c3645ef320c3e58349ec8c18c43abce2c",
	"columns/512":   "7fa6f9721ce242c9cecdf2c8ecc2881d12b5e955197f626d43ad6420f1276946",
	"FFT2D/2":       "8fb68b70cf2ad1979ae37cd977e5c4e16e8844b0053fe4e7eda97bf17d725359",
	"FFT2D/4":       "cb3714c87cc065827c104e6221d0423f51e92dbb7d83f7aa4f15860fddf80e76",
	"FFT2D/8":       "ba1e3b39ec12d087d463b9d514b0287abe101161e5b78ce2f8752cccacca2e24",
	"FFT2D/12":      "18f6fa25ee8959803df91dd13e6417753cc764224cbfa55da02755c3d7bb95c7",
	"FFT2D/16":      "61e47bea806a0a10442a4857ff0b1ce0abf9d119826ddff4af8f5e3ffa4fc975",
	"FFT2D/32":      "022aaf4bffcef564fbd5d674c77105ef929fe292ccfbd295417cdd37c242b750",
	"FFT2D/64":      "8403077cec51c6d018a652f134715eba96e1a9ddd3f6d9e1d989091a265a0cb9",
	"FFT2D/128":     "31dcd5b610597851cfd5d15d2d1f9cbb441c284beeffa389a7d8737c331a950d",
	"FFT2D/512":     "b3cf581e8e3d4dc98e2cb712b805d5c4f7bdc4306b588683de12badc0aef36a3",
	"FFT3D/2":       "c75520bf80617f06c165ef4d2f1d3f63e49623399bcea08eb5108842204e678a",
	"FFT3D/4":       "9c8490c4e08f5e69ecf914b2ab7fec64a257904c1ea3a1253b9322114789e6aa",
	"FFT3D/8":       "cc34d0cd1a7dc32f0ba25d8e0c9b3a4df5adbeabc709e2e44b82a388c01c2955",
	"FFT3D/12":      "12fbdfce5e16139466e7a89997a0642583f31b58d8ae66362f704dde9aae9a2a",
	"FFT3D/16":      "364d2b7da674b27ff9385f9f8c676d684fc86ea7f07263320b539409894a0c4b",
	"FFT3D/32":      "3bed33d1e0b7c08d1c527bced27a96e1507593ec0af12b39f528db5973df1061",
	"FFT3D/64":      "80550ad92f4ab9d368cf0e84317ec2204a8075196a438d0e5eddc02c86832fe5",
	"FFT3D/128":     "3711d7671acf89a67e81c26d775e7e172f10a1bdb616dc2007db3f676110cdab",
	"FFT3D/512":     "7db0978bbf7568bbfcc5234930cbc2fc1bbacf4e333e843974b2b93825d706c7",
}

// digest is the sha256 of the bits of v, real then imaginary part of each
// value, little-endian.
func digest(v []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, c := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(c)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBitwiseOracle: Transform on three lines of n, columns on an n×37
// block (a whole tile and a part), FFT2D on n×min(n, 64) and FFT3D on n×4×8,
// each forward and then inverse, give the outputs whose digests are pinned
// above bit for bit. The pins hold on amd64, where the compiler fuses no
// multiply-add; other targets skip.
func TestBitwiseOracle(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digests are of amd64 arithmetic, not %s's", runtime.GOARCH)
	}
	for _, n := range oracleSizes {
		p, err := PlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		n2 := min(n, 64)
		for _, c := range []struct {
			name string
			len  int
			fn   func(x []complex128, sign int) error
		}{
			{"Transform", 3 * n, func(x []complex128, sign int) error {
				for i := 0; i < len(x); i += n {
					if err := transform(x[i:i+n], sign); err != nil {
						return err
					}
				}
				return nil
			}},
			{"columns", 37 * n, func(x []complex128, sign int) error { p.columns(x, 37, sign); return nil }},
			{"FFT2D", n * n2, func(x []complex128, sign int) error { return FFT2D(x, n, n2, sign) }},
			{"FFT3D", n * 4 * 8, func(x []complex128, sign int) error { return FFT3D(x, n, 4, 8, sign) }},
		} {
			x := testData(c.len, uint64(3*n+c.len))
			var out []complex128
			for _, sign := range []int{-1, +1} {
				if err := c.fn(x, sign); err != nil {
					t.Fatal(err)
				}
				out = append(out, x...)
			}
			key := fmt.Sprintf("%s/%d", c.name, n)
			if got := digest(out); got != oracle[key] {
				t.Errorf("%q: %q,", key, got)
			}
		}
	}
}
