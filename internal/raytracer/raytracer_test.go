package raytracer

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"fmt"
	"math"
	"math/rand/v2"
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
	p := NewPlane(0, Material{
		Checker: true, Color: Vec3{1, 1, 1}, Color2: Vec3{0, 0, 0},
	})
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
	pix, err := DecodeFrame(enc, 24, 18)
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
	if _, err := DecodeFrame("!!!not-base64!!!", 8, 8); err == nil {
		t.Fatal("expected base64 error")
	}
	if _, err := DecodeFrame("aGVsbG8=", 8, 8); err == nil { // valid base64, not gzip
		t.Fatal("expected gzip error")
	}
	enc, err := RenderFrame(0.7, 24, 18)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(enc, 24, 19); err == nil {
		t.Fatal("expected an error for a frame shorter than its size")
	}
	if _, err := DecodeFrame(enc, 24, 17); err == nil {
		t.Fatal("expected an error for a frame longer than its size")
	}
}

// TestDecodeFrameBomb: a volunteer's ~64 KB frame that inflates to 64 MiB
// must be refused without the master inflating it.
func TestDecodeFrameBomb(t *testing.T) {
	// 64 gzip members of 1 MiB of zeros each, which a gzip reader reads
	// as one stream.
	var member bytes.Buffer
	zw := gzip.NewWriter(&member)
	if _, err := zw.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	bomb := base64.StdEncoding.EncodeToString(bytes.Repeat(member.Bytes(), 64))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeFrame(bomb, 96, 72)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame that inflates to 64 MiB was accepted as 96x72")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing the frame allocated %d bytes, want under 1 MiB", grew)
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
			&Sphere{Center: Vec3{0, 2, 0}, Radius: 1, Mat: Material{Color: Vec3{1, 0, 0}}},
			&Plane{Y: 0, Mat: Material{Color: Vec3{1, 1, 1}}},
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

func TestGammaLookupMatchesToByte(t *testing.T) {
	g := gamma()
	check := func(x float64) {
		if got, want := g.lookup(x), toByte(x); got != want {
			t.Fatalf("lookup(%v) = %d, toByte = %d", x, got, want)
		}
	}
	for _, x := range []float64{-1, 0, math.Copysign(0, -1), 1, 2, math.Inf(1), math.Inf(-1), math.NaN()} {
		check(x)
	}
	for k := 1; k <= 255; k++ {
		e := math.Float64bits(g.edges[k])
		if toByte(g.edges[k]) < byte(k) || toByte(math.Float64frombits(e-1)) >= byte(k) {
			t.Fatalf("edge %d = %v is not where toByte reaches %d", k, g.edges[k], k)
		}
		for d := uint64(0); d <= 4096; d++ {
			check(math.Float64frombits(e - d))
			check(math.Float64frombits(e + d))
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1e6; i++ {
		check(r.Float64())
	}
}

func TestSpecularPowMatchesPow(t *testing.T) {
	check := func(sp, n float64) {
		if got, want := specularPow(sp, n), math.Pow(sp, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("specularPow(%v, %v) = %v, math.Pow = %v", sp, n, got, want)
		}
	}
	r := rand.New(rand.NewPCG(3, 4))
	for n := 1.0; n <= 256; n++ {
		for i := 0; i < 2000; i++ {
			check(1-float64(r.Float64()), n) // (0, 1]
		}
		// The bases whose n-th power is near 2^-1022, where the result
		// stops being a normal float.
		edge := math.Float64bits(math.Pow(2, -1022/n))
		for d := uint64(0); d <= 2048; d++ {
			check(math.Float64frombits(edge-d), n)
			check(math.Float64frombits(edge+d), n)
		}
		check(1, n)
		check(math.SmallestNonzeroFloat64, n)
	}
	for _, c := range [][2]float64{{0.5, 0}, {0.5, 2.5}, {0.5, -3}, {1.5, 3}, {0, 8}, {-0.5, 3}, {math.NaN(), 8}} {
		check(c[0], c[1])
	}
}
