//go:build amd64 || wasm

// The digests below hold where Go rounds every float64 operation on its
// own: amd64 fuses only at an explicit math.FMA, at every GOAMD64 level,
// and wasm not at all. arm64, ppc64, s390x and riscv64 may fuse x*y+z
// into one rounding; the kernel's explicit float64 conversions forbid
// that at every product that meets a sum (CI checks the arm64 build for
// fused instructions), but no such host has run these digests yet.

package raytracer

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// TestRenderFrameGolden pins the bytes RenderFrame puts on the wire. The
// kernel's shortcuts (the gamma table, integer specular powers) are exact,
// so a speed-up moves no digest. Regenerate them only in a change that
// means to alter the image.
func TestRenderFrameGolden(t *testing.T) {
	golden := map[[2]int][]string{
		{64, 48}: {
			"33b5a03e0852bd52fc102d43dbb2cd9ff5c3c4be8b06f2c2a545a04fcbc26f6b",
			"313623e60902d25c3be38cdc9e93be5c529b7234814788bde69ef52295b53fad",
			"987184aa053d577b420c7d55a568026ae9f8251071882c3b8332e87f034c75f6",
			"f9031790decf12bd3dd8ce8dc97ff6b6a5a8037c1c00313bba45e9f38015491e",
			"518d0f449ad399d149945e8a46a1dcdee7d202b5fb81182edf9cc057713a01a5",
			"1900367290a75faafa105a6ff6c4c42652e4a974ab3ef69c7b2d6557a592076d",
			"7ce3269288985341f3defcb87d71e6ebad22bcfdb4862dc1d16b4b5e0eb93bc7",
			"4acc65b949018f5e1a6807ffc534af10ecf9fd8279512ff3a7a3a5feb0f770f3",
			"4ea84d5f51cd43af9c1d94a0c1b36fbb6ea3987152d374aa52b915269b26f41b",
			"526e1fe3cba28ccd1837f74f825752eddf5c81eaee0da130df31c0a760f827f3",
			"1b85c5c47723ca3649539288617c0f44de17cca4df1848e041661620eadc1632",
			"5ca33e65f7d98b8b758b6f39593c533d34581a0822aa428f32dcc0084e40d9c6",
		},
		{96, 72}: {
			"91b8ef6e2f62ffaccd39949cc94cf3cfd2a8073b7957cf6d41b93d509e0e9a8a",
			"cc9b30a4c3a1d9707595c7a30e865f48fc78ec8a9f42b1cc91075c58cd392ded",
			"83682acf869a745a6b57dee43601c2455ac69d58935f1eb5288fa7556014d945",
			"2c2e602ca4db5bb81a30cb80e27e1141ca71ae8a401a37c67741a3a6673ff526",
			"f633036dbd53a75dc4bc6160985b8f4f39c58e771c07b018968237db5550e80e",
			"c4e9c2434529b719feda1fa5a93c1343da0fb4c61cb767214fe064a92bf036d2",
			"c6b49cc9453d2b58d483f0c03ecce8f088c785a5af0207d2a58467a326ac0a00",
			"181d36af68a8deb9f7d2df5d739394c347e512d3306348a97a25f3c9f451013a",
			"fa021af86e5376883d6dd71c16699c48e4fd6f841a735f6b9fd91e6a6f10399d",
			"3231cd704f8e249482b73c1898a47b9636950154b33ab456d299cb73b909ae8f",
			"0c21fec255a87f3b48283381d4375469b9de9d631bd6761bdd8282fe67cb4892",
			"f8e1f22de66f6c1229845fc83417edbf18aea61cd262975a88e745ac61700265",
		},
	}
	check := func(angle float64, w, h int, want string) {
		t.Helper()
		f, err := RenderFrame(angle, w, h)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256([]byte(f)); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%dx%d at %v: frame digest %x, want %s", w, h, angle, sum, want)
		}
	}
	for size, digests := range golden {
		for i, a := range frameAngles() {
			check(a, size[0], size[1], digests[i])
		}
	}
	// The first frames of the benchmark's raytrace-compute at seeds 1 and
	// 20190: 64x48 at 2π·1265/3600 and 2π·2464/3600.
	check(math.Float64frombits(0x4001a9a8ce6ba561), 64, 48, "d976c89a29ee223f267ee73ab1cfb378d70346453446983aabb904ad84db118f")
	check(math.Float64frombits(0x401133b3fc3c50ed), 64, 48, "71932d895ddcf9f46275f58d25b87f203488eaa7a91fc8fe92063f274b9f5520")
}
