package raytracer

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"pando/internal/race"
)

func TestVecBasics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := (Vec3{1, 0, 0}).Cross(Vec3{0, 1, 0}); got != (Vec3{0, 0, 1}) {
		t.Fatalf("Cross = %v", got)
	}
}

func TestVecNorm(t *testing.T) {
	v := Vec3{3, 4, 0}.Norm()
	if math.Abs(v.Len()-1) > 1e-12 {
		t.Fatalf("norm length = %v", v.Len())
	}
	zero := Vec3{}.Norm()
	if zero != (Vec3{}) {
		t.Fatalf("zero norm = %v", zero)
	}
}

func TestQuickNormUnitLength(t *testing.T) {
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(z, 0) {
			return true
		}
		v := Vec3{x, y, z}
		if v.Len() == 0 || v.Len() > 1e150 {
			return true
		}
		return math.Abs(v.Norm().Len()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReflectPreservesLength(t *testing.T) {
	v := Vec3{1, -1, 0.5}.Norm()
	n := Vec3{0, 1, 0}
	r := v.Reflect(n)
	if math.Abs(r.Len()-1) > 1e-12 {
		t.Fatalf("reflected length = %v", r.Len())
	}
	if r.Y <= 0 {
		t.Fatalf("reflection about +Y must flip Y: %v", r)
	}
}

func TestSphereIntersection(t *testing.T) {
	s := Sphere{Center: Vec3{0, 0, -5}, Radius: 1}
	hitRay := Ray{Origin: Vec3{}, Dir: Vec3{0, 0, -1}}
	t1, ok := s.Intersect(hitRay)
	if !ok {
		t.Fatal("ray through centre must hit")
	}
	if math.Abs(t1-4) > 1e-9 {
		t.Fatalf("t = %v, want 4", t1)
	}
	missRay := Ray{Origin: Vec3{}, Dir: Vec3{0, 1, 0}}
	if _, ok := s.Intersect(missRay); ok {
		t.Fatal("ray away from sphere must miss")
	}
	// From inside: hits the far wall.
	inside := Ray{Origin: Vec3{0, 0, -5}, Dir: Vec3{0, 0, -1}}
	t2, ok := s.Intersect(inside)
	if !ok || math.Abs(t2-1) > 1e-9 {
		t.Fatalf("inside hit t = %v ok=%v, want 1", t2, ok)
	}
}

func TestPlaneIntersection(t *testing.T) {
	p := Plane{Y: 0}
	down := Ray{Origin: Vec3{0, 5, 0}, Dir: Vec3{0, -1, 0}}
	t1, ok := p.Intersect(down)
	if !ok || math.Abs(t1-5) > 1e-9 {
		t.Fatalf("t = %v ok=%v", t1, ok)
	}
	parallel := Ray{Origin: Vec3{0, 5, 0}, Dir: Vec3{1, 0, 0}}
	if _, ok := p.Intersect(parallel); ok {
		t.Fatal("parallel ray must miss")
	}
}

func TestPlaneChecker(t *testing.T) {
	p := Plane{Y: 0, Mat: Material{
		Checker: true, Color: Vec3{1, 1, 1}, Color2: Vec3{0, 0, 0},
	}}
	a := p.MaterialAt(Vec3{0.5, 0, 0.5}).Color
	b := p.MaterialAt(Vec3{1.5, 0, 0.5}).Color
	if a == b {
		t.Fatal("adjacent checker cells must differ")
	}
}

func TestRenderDeterministic(t *testing.T) {
	scene := DefaultScene()
	cam := OrbitCamera(1.0, 6, 2.2)
	f1 := scene.Render(cam, 32, 24)
	f2 := scene.Render(cam, 32, 24)
	if !bytes.Equal(f1, f2) {
		t.Fatal("rendering must be deterministic")
	}
	if len(f1) != 4*32*24 {
		t.Fatalf("frame size = %d", len(f1))
	}
}

func TestRenderHasContent(t *testing.T) {
	scene := DefaultScene()
	pix := scene.Render(OrbitCamera(0.5, 6, 2.2), 48, 36)
	// The image must not be uniform: it contains spheres, floor and sky.
	distinct := make(map[[3]byte]bool)
	for i := 0; i < len(pix); i += 4 {
		distinct[[3]byte{pix[i], pix[i+1], pix[i+2]}] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct colours; scene did not render", len(distinct))
	}
}

func TestRenderAngleChangesImage(t *testing.T) {
	scene := DefaultScene()
	f1 := scene.Render(OrbitCamera(0, 6, 2.2), 32, 24)
	f2 := scene.Render(OrbitCamera(math.Pi/2, 6, 2.2), 32, 24)
	if bytes.Equal(f1, f2) {
		t.Fatal("different camera angles must give different frames")
	}
}

func TestRenderFrameRoundTrip(t *testing.T) {
	enc, err := RenderFrame(0.7, 24, 18)
	if err != nil {
		t.Fatal(err)
	}
	pix, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pix) != 4*24*18 {
		t.Fatalf("decoded %d bytes, want %d", len(pix), 4*24*18)
	}
}

// renderFrameUnpooled is RenderFrame without the shared scene and the
// pooled compressor: a fresh DefaultScene and a fresh gzip.Writer.
func renderFrameUnpooled(t *testing.T, angle float64, w, h int) string {
	t.Helper()
	pix := DefaultScene().Render(OrbitCamera(angle, 6, 2.2), w, h)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(pix); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

func frameAngles() []float64 {
	var angles []float64
	for i := 0; i < 12; i++ {
		angles = append(angles, 2*math.Pi*float64(i)/12)
	}
	return angles
}

func TestRenderFrameMatchesUnpooled(t *testing.T) {
	for _, size := range [][2]int{{64, 48}, {96, 72}} {
		for _, a := range frameAngles() {
			got, err := RenderFrame(a, size[0], size[1])
			if err != nil {
				t.Fatal(err)
			}
			if want := renderFrameUnpooled(t, a, size[0], size[1]); got != want {
				t.Fatalf("%dx%d at %.3f: pooled frame differs from the unpooled one", size[0], size[1], a)
			}
		}
	}
}

func TestRenderFrameConcurrent(t *testing.T) {
	angles := frameAngles()
	want := make([]string, len(angles))
	for i, a := range angles {
		want[i] = renderFrameUnpooled(t, a, 64, 48)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range angles {
				i := (g + k) % len(angles)
				got, err := RenderFrame(angles[i], 64, 48)
				if err == nil && got != want[i] {
					err = fmt.Errorf("goroutine %d, angle %.3f: frame differs from the sequential one", g, angles[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRenderFrameAllocs guards the pooled compressor and the shared scene:
// a fresh gzip.Writer was ~850 KB of flate state per frame.
func TestRenderFrameAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// One P, so every frame finds the compressor the warm-up frame left
	// in that P's pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	render := func() {
		if _, err := RenderFrame(1.0, 64, 48); err != nil {
			t.Fatal(err)
		}
	}
	render()
	const frames = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		render()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / frames
	bytesPerFrame := (after.TotalAlloc - before.TotalAlloc) / frames
	if allocs > 10 || bytesPerFrame >= 64<<10 {
		t.Fatalf("RenderFrame allocates %.1f objects and %d bytes per frame, want at most 10 and under 64 KiB", allocs, bytesPerFrame)
	}
}

func TestDecodeFrameBadInput(t *testing.T) {
	if _, err := DecodeFrame("!!!not-base64!!!"); err == nil {
		t.Fatal("expected base64 error")
	}
	if _, err := DecodeFrame("aGVsbG8="); err == nil { // valid base64, not gzip
		t.Fatal("expected gzip error")
	}
}

func TestEncodeGIF(t *testing.T) {
	scene := DefaultScene()
	var frames [][]byte
	for i := 0; i < 3; i++ {
		frames = append(frames, scene.Render(OrbitCamera(float64(i)*0.8, 6, 2.2), 16, 12))
	}
	var buf bytes.Buffer
	if err := EncodeGIF(&buf, frames, 16, 12, 10); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty GIF")
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("GIF8")) {
		t.Fatal("output is not a GIF")
	}
}

func TestEncodeGIFValidation(t *testing.T) {
	if err := EncodeGIF(&bytes.Buffer{}, nil, 8, 8, 10); err == nil {
		t.Fatal("expected error for zero frames")
	}
	bad := [][]byte{make([]byte, 7)}
	if err := EncodeGIF(&bytes.Buffer{}, bad, 8, 8, 10); err == nil {
		t.Fatal("expected error for wrong frame size")
	}
}

func TestShadowing(t *testing.T) {
	// A big sphere between the light and the floor must cast a shadow:
	// the floor point under the sphere is darker than one far away.
	scene := &Scene{
		Objects: []Object{
			Sphere{Center: Vec3{0, 2, 0}, Radius: 1, Mat: Material{Color: Vec3{1, 0, 0}}},
			Plane{Y: 0, Mat: Material{Color: Vec3{1, 1, 1}}},
		},
		Lights:     []Light{{Pos: Vec3{0, 10, 0}, Color: Vec3{1, 1, 1}}},
		Background: Vec3{},
		Ambient:    Vec3{0.1, 0.1, 0.1},
		MaxDepth:   1,
	}
	under := scene.trace(Ray{Origin: Vec3{0.2, 0.5, 0}, Dir: Vec3{0, -1, 0}}, 0)
	open := scene.trace(Ray{Origin: Vec3{8, 0.5, 0}, Dir: Vec3{0, -1, 0}}, 0)
	if under.Len() >= open.Len() {
		t.Fatalf("shadowed point %v not darker than open point %v", under, open)
	}
}
