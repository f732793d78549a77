package raytracer

import "math"

// Vec3 is a 3-component vector used for points, directions and colours.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Mul returns the component-wise product v * w.
func (v Vec3) Mul(w Vec3) Vec3 {
	return Vec3{float64(v.X * w.X), float64(v.Y * w.Y), float64(v.Z * w.Z)}
}

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 {
	return Vec3{float64(v.X * s), float64(v.Y * s), float64(v.Z * s)}
}

// Dot returns the dot product.
func (v Vec3) Dot(w Vec3) float64 { return float64(v.X*w.X) + float64(v.Y*w.Y) + float64(v.Z*w.Z) }

// Cross returns the cross product.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		float64(v.Y*w.Z) - float64(v.Z*w.Y),
		float64(v.Z*w.X) - float64(v.X*w.Z),
		float64(v.X*w.Y) - float64(v.Y*w.X),
	}
}

// Len returns the Euclidean length.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Norm returns the unit vector in v's direction (zero stays zero).
func (v Vec3) Norm() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Reflect returns v reflected about unit normal n.
func (v Vec3) Reflect(n Vec3) Vec3 {
	return v.Sub(n.Scale(2 * v.Dot(n)))
}

// Clamp01 clamps each component to [0, 1].
func (v Vec3) Clamp01() Vec3 {
	return Vec3{clamp01(v.X), clamp01(v.Y), clamp01(v.Z)}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Ray is a half-line with origin and unit direction.
type Ray struct {
	Origin, Dir Vec3
}

// At returns the point at parameter t along the ray.
func (r Ray) At(t float64) Vec3 { return r.Origin.Add(r.Dir.Scale(t)) }
