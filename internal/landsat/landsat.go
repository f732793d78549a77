// Package landsat is the open-data image-processing substrate of the
// paper's applications (§4.1 and §4.3): workers apply a blur filter to
// images from the Landsat-8 open satellite dataset, with the image data
// distributed outside of Pando — over HTTP in the synchronous variant, or
// over failure-prone peer-to-peer protocols (DAT, WebTorrent) in the
// stubborn variants.
//
// Substitution: the real dataset is not available offline, so tiles are
// generated deterministically from their identifier with a value-noise
// synthesizer at the same data volume (the paper's ~168 kB per image),
// which preserves the compute and transfer behaviour of the application.
package landsat

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
)

// Tile is one satellite image: interleaved RGB bytes, row major.
type Tile struct {
	ID     int    `json:"id"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Pix    []byte `json:"pix"` // 3*Width*Height bytes
}

// DefaultSize gives ~168 kB per tile (3 bytes x 237 x 237 ≈ 168,507),
// matching the image size reported in the paper's evaluation (§5.5).
const DefaultSize = 237

// hash32 is a small deterministic integer mixer (xorshift-multiply).
func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// valueAt returns deterministic smooth noise in [0,255] for a lattice
// coordinate, combining two octaves of bilinear value noise.
func valueAt(id, x, y, channel int) byte {
	sample := func(scale int) float64 {
		gx, gy := x/scale, y/scale
		fx := float64(x%scale) / float64(scale)
		fy := float64(y%scale) / float64(scale)
		corner := func(cx, cy int) float64 {
			h := hash32(uint32(id*1000003) ^ uint32(cx*73856093) ^ uint32(cy*19349663) ^ uint32(channel*83492791))
			return float64(h%256) / 255
		}
		v00 := corner(gx, gy)
		v10 := corner(gx+1, gy)
		v01 := corner(gx, gy+1)
		v11 := corner(gx+1, gy+1)
		top := float64(v00*(1-fx)) + float64(v10*fx)
		bot := float64(v01*(1-fx)) + float64(v11*fx)
		return float64(top*(1-fy)) + float64(bot*fy)
	}
	v := float64(0.65*sample(32)) + float64(0.35*sample(8))
	if v > 1 {
		v = 1
	}
	return byte(v * 255)
}

// GenerateTile synthesizes the tile with the given ID at the given size.
func GenerateTile(id, width, height int) Tile {
	pix := make([]byte, 3*width*height)
	i := 0
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			pix[i+0] = valueAt(id, x, y, 0)
			pix[i+1] = valueAt(id, x, y, 1)
			pix[i+2] = valueAt(id, x, y, 2)
			i += 3
		}
	}
	return Tile{ID: id, Width: width, Height: height, Pix: pix}
}

// Validate checks the tile's structural invariants.
func (t Tile) Validate() error {
	if t.Width <= 0 || t.Height <= 0 {
		return fmt.Errorf("landsat: tile %d has invalid dimensions %dx%d", t.ID, t.Width, t.Height)
	}
	if len(t.Pix) != 3*t.Width*t.Height {
		return fmt.Errorf("landsat: tile %d has %d pixel bytes, want %d", t.ID, len(t.Pix), 3*t.Width*t.Height)
	}
	return nil
}

// BoxBlur applies a box blur of the given radius (a separable mean
// filter, applied horizontally then vertically), the compute-bound filter
// of the image-processing application. It returns a new tile.
func BoxBlur(t Tile, radius int) (Tile, error) {
	if err := t.Validate(); err != nil {
		return Tile{}, err
	}
	if radius < 1 {
		return Tile{}, fmt.Errorf("landsat: blur radius %d < 1", radius)
	}
	w, h := t.Width, t.Height
	tmp := make([]float64, 3*w*h)
	out := make([]byte, 3*w*h)

	// Horizontal pass.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for c := 0; c < 3; c++ {
				var sum float64
				var n int
				for dx := -radius; dx <= radius; dx++ {
					xx := x + dx
					if xx < 0 || xx >= w {
						continue
					}
					sum += float64(t.Pix[3*(y*w+xx)+c])
					n++
				}
				tmp[3*(y*w+x)+c] = sum / float64(n)
			}
		}
	}
	// Vertical pass.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for c := 0; c < 3; c++ {
				var sum float64
				var n int
				for dy := -radius; dy <= radius; dy++ {
					yy := y + dy
					if yy < 0 || yy >= h {
						continue
					}
					sum += tmp[3*(yy*w+x)+c]
					n++
				}
				out[3*(y*w+x)+c] = byte(sum/float64(n) + 0.5)
			}
		}
	}
	return Tile{ID: t.ID, Width: w, Height: h, Pix: out}, nil
}

// Variance returns the per-pixel intensity variance of the tile, used by
// tests to verify that blurring smooths the image.
func Variance(t Tile) float64 {
	if len(t.Pix) == 0 {
		return 0
	}
	var mean float64
	for _, b := range t.Pix {
		mean += float64(b)
	}
	mean /= float64(len(t.Pix))
	var v float64
	for _, b := range t.Pix {
		d := float64(b) - mean
		v += float64(d * d)
	}
	return v / float64(len(t.Pix))
}

// EncodePNG writes the tile as a PNG image, for inspecting inputs and
// blurred outputs.
func EncodePNG(w io.Writer, t Tile) error {
	if err := t.Validate(); err != nil {
		return err
	}
	img := image.NewRGBA(image.Rect(0, 0, t.Width, t.Height))
	for y := 0; y < t.Height; y++ {
		for x := 0; x < t.Width; x++ {
			i := 3 * (y*t.Width + x)
			img.SetRGBA(x, y, color.RGBA{t.Pix[i], t.Pix[i+1], t.Pix[i+2], 0xFF})
		}
	}
	return png.Encode(w, img)
}

// DecodePNG reads a PNG back into a tile with the given ID.
func DecodePNG(r io.Reader, id int) (Tile, error) {
	img, err := png.Decode(r)
	if err != nil {
		return Tile{}, fmt.Errorf("landsat: decode png: %w", err)
	}
	b := img.Bounds()
	t := Tile{ID: id, Width: b.Dx(), Height: b.Dy(), Pix: make([]byte, 3*b.Dx()*b.Dy())}
	i := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r16, g16, b16, _ := img.At(x, y).RGBA()
			t.Pix[i+0] = byte(r16 >> 8)
			t.Pix[i+1] = byte(g16 >> 8)
			t.Pix[i+2] = byte(b16 >> 8)
			i += 3
		}
	}
	return t, nil
}
