// Package raytracer is a Whitted-style ray tracer [Whitted 1980], the
// compute-bound rendering workload of the paper's usage example (§2.1,
// Figure 1): an animation is produced by rendering one frame per camera
// position rotating around a 3D scene, each frame rendered independently
// by a volunteer device.
//
// Frames are byte-exact: the gamma lookup and the integer specular powers
// return exactly what toByte and math.Pow do, so a frame depends only on
// its arguments and, as on amd64, on no x*y+z being fused into one
// rounding. TestRenderFrameGolden pins the bytes.
package raytracer

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"io"
	"math"
	"sync"
)

// Material describes a surface.
type Material struct {
	// Color is the diffuse albedo.
	Color Vec3
	// Specular is the Phong specular coefficient.
	Specular float64
	// Shininess is the Phong exponent.
	Shininess float64
	// Reflectivity in [0,1] blends the reflected ray's colour.
	Reflectivity float64
	// Checker alternates Color with Color2 in a checkerboard (floors).
	Checker bool
	// Color2 is the second checker colour.
	Color2 Vec3
}

// Object is anything a ray can hit.
type Object interface {
	// Intersect returns the smallest t > epsilon at which r hits the
	// object, and whether it hits at all.
	Intersect(r Ray) (t float64, ok bool)
	// NormalAt returns the outward unit normal at point p.
	NormalAt(p Vec3) Vec3
	// MaterialAt returns the material at point p, which the caller must
	// not modify.
	MaterialAt(p Vec3) *Material
}

const epsilon = 1e-6

// Sphere is a centre/radius sphere.
type Sphere struct {
	Center Vec3
	Radius float64
	Mat    Material
}

// Intersect solves the quadratic ray/sphere equation.
func (s *Sphere) Intersect(r Ray) (float64, bool) {
	oc := r.Origin.Sub(s.Center)
	b := oc.Dot(r.Dir)
	c := oc.Dot(oc) - float64(s.Radius*s.Radius)
	disc := float64(b*b) - c
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	if t := -b - sq; t > epsilon {
		return t, true
	}
	if t := -b + sq; t > epsilon {
		return t, true
	}
	return 0, false
}

// NormalAt returns the outward normal.
func (s *Sphere) NormalAt(p Vec3) Vec3 { return p.Sub(s.Center).Norm() }

// MaterialAt returns the sphere's material.
func (s *Sphere) MaterialAt(Vec3) *Material { return &s.Mat }

// Plane is the horizontal plane y = Y; NewPlane builds a checkered one.
type Plane struct {
	Y   float64
	Mat Material
	// odd is Mat coloured Color2, for the checkerboard's odd squares.
	odd Material
}

// NewPlane returns the plane y = Y with material mat, and with the second
// material a checkered mat needs.
func NewPlane(y float64, mat Material) *Plane {
	pl := &Plane{Y: y, Mat: mat, odd: mat}
	pl.odd.Color = mat.Color2
	return pl
}

// Intersect tests against the horizontal plane.
func (pl *Plane) Intersect(r Ray) (float64, bool) {
	if math.Abs(r.Dir.Y) < epsilon {
		return 0, false
	}
	t := (pl.Y - r.Origin.Y) / r.Dir.Y
	if t > epsilon {
		return t, true
	}
	return 0, false
}

// NormalAt returns the up normal.
func (pl *Plane) NormalAt(Vec3) Vec3 { return Vec3{Y: 1} }

// MaterialAt applies the checkerboard, if configured.
func (pl *Plane) MaterialAt(p Vec3) *Material {
	if pl.Mat.Checker && (int(math.Floor(p.X))+int(math.Floor(p.Z)))%2 != 0 {
		return &pl.odd
	}
	return &pl.Mat
}

// Light is a point light.
type Light struct {
	Pos   Vec3
	Color Vec3
}

// Scene is a renderable collection of objects and lights.
type Scene struct {
	Objects    []Object
	Lights     []Light
	Background Vec3
	Ambient    Vec3
	MaxDepth   int
}

// DefaultScene builds the demonstration scene: three spheres of different
// materials over a checkered floor, in the spirit of the paper's Figure 1.
func DefaultScene() *Scene {
	return &Scene{
		Objects: []Object{
			&Sphere{Center: Vec3{0, 1, 0}, Radius: 1, Mat: Material{
				Color: Vec3{0.9, 0.2, 0.2}, Specular: 0.7, Shininess: 64, Reflectivity: 0.35,
			}},
			&Sphere{Center: Vec3{-2.2, 0.7, 1.0}, Radius: 0.7, Mat: Material{
				Color: Vec3{0.2, 0.4, 0.9}, Specular: 0.9, Shininess: 128, Reflectivity: 0.5,
			}},
			&Sphere{Center: Vec3{1.8, 0.5, -1.2}, Radius: 0.5, Mat: Material{
				Color: Vec3{0.2, 0.8, 0.3}, Specular: 0.4, Shininess: 32, Reflectivity: 0.15,
			}},
			NewPlane(0, Material{
				Color: Vec3{0.85, 0.85, 0.85}, Color2: Vec3{0.2, 0.2, 0.2},
				Checker: true, Specular: 0.1, Shininess: 8, Reflectivity: 0.1,
			}),
		},
		Lights: []Light{
			{Pos: Vec3{5, 8, 5}, Color: Vec3{0.9, 0.9, 0.9}},
			{Pos: Vec3{-6, 4, -2}, Color: Vec3{0.3, 0.3, 0.35}},
		},
		Background: Vec3{0.05, 0.07, 0.12},
		Ambient:    Vec3{0.08, 0.08, 0.08},
		MaxDepth:   3,
	}
}

// hit finds the nearest intersection.
func (s *Scene) hit(r Ray) (Object, float64, bool) {
	var best Object
	bestT := math.Inf(1)
	for _, o := range s.Objects {
		if t, ok := o.Intersect(r); ok && t < bestT {
			best, bestT = o, t
		}
	}
	return best, bestT, best != nil
}

// shadowed reports whether point p is occluded from light l.
func (s *Scene) shadowed(p Vec3, l Light) bool {
	toLight := l.Pos.Sub(p)
	dist := toLight.Len()
	r := Ray{Origin: p, Dir: toLight.Norm()}
	for _, o := range s.Objects {
		if t, ok := o.Intersect(r); ok && t < dist {
			return true
		}
	}
	return false
}

// trace computes the colour seen along r (Whitted recursion).
func (s *Scene) trace(r Ray, depth int) Vec3 {
	obj, t, ok := s.hit(r)
	if !ok {
		return s.Background
	}
	p := r.At(t)
	n := obj.NormalAt(p)
	if n.Dot(r.Dir) > 0 {
		n = n.Scale(-1)
	}
	m := obj.MaterialAt(p)
	// Offset to avoid self-intersection.
	pOut := p.Add(n.Scale(1e-4))

	col := s.Ambient.Mul(m.Color)
	for _, l := range s.Lights {
		if s.shadowed(pOut, l) {
			continue
		}
		ldir := l.Pos.Sub(p).Norm()
		if lam := n.Dot(ldir); lam > 0 {
			col = col.Add(m.Color.Mul(l.Color).Scale(lam))
		}
		if m.Specular > 0 {
			h := ldir.Sub(r.Dir).Norm()
			if sp := n.Dot(h); sp > 0 {
				col = col.Add(l.Color.Scale(m.Specular * specularPow(sp, m.Shininess)))
			}
		}
	}
	if m.Reflectivity > 0 && depth < s.MaxDepth {
		refl := s.trace(Ray{Origin: pOut, Dir: r.Dir.Reflect(n).Norm()}, depth+1)
		col = col.Scale(1 - m.Reflectivity).Add(refl.Scale(m.Reflectivity))
	}
	return col.Clamp01()
}

// specularPow is math.Pow(x, n). For 0 < x <= 1 and an integer n it
// squares and multiplies as math.Pow does, but on x itself rather than on
// its Frexp mantissa: while every product is a normal float the two round
// alike, and a result that is not normal is left to math.Pow.
func specularPow(x, n float64) float64 {
	if !(x > 0 && x <= 1 && n >= 1 && n <= 1<<30 && n == math.Trunc(n)) {
		return math.Pow(x, n)
	}
	p, sq := 1.0, x
	for i := int(n); ; sq *= sq {
		if i&1 == 1 {
			p *= sq
		}
		if i >>= 1; i == 0 {
			break
		}
	}
	if p < 0x1p-1022 {
		return math.Pow(x, n)
	}
	return p
}

// Camera generates primary rays from an orbiting viewpoint.
type Camera struct {
	pos, forward, right, up Vec3
	fovScale                float64
}

// OrbitCamera places the camera on a circle of the given radius and
// height around the origin at the given angle (radians), looking at the
// scene centre. The animation of the paper's Figure 1 is a sweep of this
// angle.
func OrbitCamera(angle, radius, height float64) Camera {
	pos := Vec3{float64(math.Cos(angle) * radius), height, float64(math.Sin(angle) * radius)}
	target := Vec3{0, 0.7, 0}
	forward := target.Sub(pos).Norm()
	right := forward.Cross(Vec3{Y: 1}).Norm()
	up := right.Cross(forward)
	return Camera{pos: pos, forward: forward, right: right, up: up, fovScale: math.Tan(0.5 * 60 * math.Pi / 180)}
}

// Render renders a w x h frame of the scene from the camera as RGBA
// bytes (4 bytes per pixel, row major).
func (s *Scene) Render(cam Camera, w, h int) []byte {
	pix := make([]byte, 4*w*h)
	aspect := float64(w) / float64(h)
	g := gamma()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := (2*(float64(x)+0.5)/float64(w) - 1) * aspect * cam.fovScale
			v := (1 - 2*(float64(y)+0.5)/float64(h)) * cam.fovScale
			dir := cam.forward.Add(cam.right.Scale(u)).Add(cam.up.Scale(v)).Norm()
			c := s.trace(Ray{Origin: cam.pos, Dir: dir}, 0)
			i := 4 * (y*w + x)
			pix[i+0] = g.lookup(c.X)
			pix[i+1] = g.lookup(c.Y)
			pix[i+2] = g.lookup(c.Z)
			pix[i+3] = 0xFF
		}
	}
	return pix
}

// toByte is the reference gamma, 2.2 for a pleasant image. Render looks
// its answers up in gamma().
func toByte(x float64) byte {
	return byte(float64(255*math.Pow(clamp01(x), 1/2.2)) + 0.5)
}

// gammaTable is toByte as a lookup. edges[k], for k in 1..255, is the
// least float64 toByte maps to k or more, found by bisection; edges[0] is
// 0 and edges[256] lies above every input. coarse[c] is the k whose
// [edges[k], edges[k+1]) holds c/4096.
type gammaTable struct {
	edges  [257]float64
	coarse [4097]uint8
}

// gammaBand is how near an edge, relatively, lookup defers to toByte. It
// is far wider than math.Pow's error, so outside it toByte's answer does
// not depend on how Pow rounds.
const gammaBand = 1e-9

var gamma = sync.OnceValue(func() *gammaTable {
	g := new(gammaTable)
	for k := 1; k <= 255; k++ {
		// Non-negative float64s order as their bits do.
		lo, hi := uint64(0), math.Float64bits(1) // toByte(lo) < k <= toByte(hi)
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; int(toByte(math.Float64frombits(mid))) >= k {
				hi = mid
			} else {
				lo = mid
			}
		}
		g.edges[k] = math.Float64frombits(hi)
	}
	g.edges[256] = 2
	k := 0
	for c := range g.coarse {
		for g.edges[k+1] <= float64(c)/4096 {
			k++
		}
		g.coarse[c] = uint8(k)
	}
	return g
})

// lookup returns toByte(x).
func (g *gammaTable) lookup(x float64) byte {
	if !(x >= 0 && x <= 1) {
		return toByte(x)
	}
	k := int(g.coarse[int(x*4096)])
	for x >= g.edges[k+1] {
		k++
	}
	if x-g.edges[k] < gammaBand*g.edges[k] || g.edges[k+1]-x < gammaBand*g.edges[k+1] {
		return toByte(x)
	}
	return byte(k)
}

// defaultScene is what RenderFrame renders; rendering only reads it.
var defaultScene = DefaultScene()

// frameGzip is a recycled compressor (~850 KB of flate state) and its buffer.
type frameGzip struct {
	buf bytes.Buffer
	zw  *gzip.Writer
}

var frameGzips = sync.Pool{New: func() any {
	g := new(frameGzip)
	g.zw = gzip.NewWriter(&g.buf)
	return g
}}

// RenderFrame renders the default scene at the given camera angle and
// returns the pixels gzip-compressed and base64-encoded, mirroring the
// paper's Figure 2 glue code (render, gzip, base64).
func RenderFrame(angle float64, w, h int) (string, error) {
	pix := defaultScene.Render(OrbitCamera(angle, 6, 2.2), w, h)
	g := frameGzips.Get().(*frameGzip)
	defer frameGzips.Put(g)
	g.buf.Reset()
	g.zw.Reset(&g.buf)
	if _, err := g.zw.Write(pix); err != nil {
		return "", fmt.Errorf("raytracer: gzip: %w", err)
	}
	if err := g.zw.Close(); err != nil {
		return "", fmt.Errorf("raytracer: gzip close: %w", err)
	}
	return base64.StdEncoding.EncodeToString(g.buf.Bytes()), nil
}

// DecodeFrame reverses RenderFrame's encoding of a w x h frame back into
// RGBA bytes. Frames come from volunteers, so it inflates no more than
// the frame's size and refuses anything else.
func DecodeFrame(encoded string, w, h int) ([]byte, error) {
	raw, err := base64.StdEncoding.DecodeString(encoded)
	if err != nil {
		return nil, fmt.Errorf("raytracer: base64: %w", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("raytracer: gunzip: %w", err)
	}
	defer zr.Close()
	size := 4 * w * h
	pix, err := io.ReadAll(io.LimitReader(zr, int64(size)+1))
	if err != nil {
		return nil, fmt.Errorf("raytracer: gunzip read: %w", err)
	}
	if len(pix) != size {
		return nil, fmt.Errorf("raytracer: frame does not inflate to %dx%d RGBA (%d bytes)", w, h, size)
	}
	return pix, nil
}

// EncodeGIF assembles rendered frames (RGBA byte slices) into an animated
// GIF, the gif-encoder.js stage of the paper's Unix pipeline (Figure 3).
func EncodeGIF(w io.Writer, frames [][]byte, width, height, delayCS int) error {
	if len(frames) == 0 {
		return fmt.Errorf("raytracer: no frames")
	}
	anim := &gif.GIF{}
	for i, f := range frames {
		if len(f) != 4*width*height {
			return fmt.Errorf("raytracer: frame %d has %d bytes, want %d", i, len(f), 4*width*height)
		}
		img := image.NewPaletted(image.Rect(0, 0, width, height), palette256())
		for y := 0; y < height; y++ {
			for x := 0; x < width; x++ {
				j := 4 * (y*width + x)
				img.Set(x, y, color.RGBA{f[j], f[j+1], f[j+2], 0xFF})
			}
		}
		anim.Image = append(anim.Image, img)
		anim.Delay = append(anim.Delay, delayCS)
	}
	return gif.EncodeAll(w, anim)
}

// palette256 is a 6x6x6 colour cube plus grays, a standard web palette.
func palette256() color.Palette {
	var p color.Palette
	for r := 0; r < 6; r++ {
		for g := 0; g < 6; g++ {
			for b := 0; b < 6; b++ {
				p = append(p, color.RGBA{byte(r * 51), byte(g * 51), byte(b * 51), 0xFF})
			}
		}
	}
	for i := 0; i < 40; i++ {
		v := byte(i * 255 / 39)
		p = append(p, color.RGBA{v, v, v, 0xFF})
	}
	return p
}
