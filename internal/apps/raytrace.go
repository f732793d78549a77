package apps

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"pando/internal/raytracer"
)

// This file implements the Raytrace application (paper §2.1 and §4.1):
// rendering the individual frames of a 3D animation in parallel while
// still obtaining them in the correct order, then assembling them into an
// animated GIF.

// Frame dimensions used by the distributed renderer. The paper's
// evaluation used a smaller image than its earlier experiments to fit
// WebRTC message limits (§5.1); these defaults follow that spirit.
const (
	FrameWidth  = 96
	FrameHeight = 72
)

// RenderFrame is the processing function of the paper's Figure 2,
// faithfully ported: the camera position arrives as a string, is parsed
// into a float, the scene is rendered, and the pixels are returned
// gzipped and base64-encoded.
func RenderFrame(cameraPos string) (string, error) {
	angle, err := strconv.ParseFloat(cameraPos, 64)
	if err != nil {
		return "", fmt.Errorf("render: parse camera position %q: %w", cameraPos, err)
	}
	return raytracer.RenderFrame(angle, FrameWidth, FrameHeight)
}

// GenerateAngles is the generate-angles.js stage of the paper's Figure 3:
// one full rotation around the scene in frames steps, as strings.
func GenerateAngles(frames int) []string {
	out := make([]string, 0, frames)
	for i := 0; i < frames; i++ {
		angle := 2 * math.Pi * float64(i) / float64(frames)
		out = append(out, strconv.FormatFloat(angle, 'f', 6, 64))
	}
	return out
}

// EncodeAnimation is the gif-encoder.js stage: decode every rendered
// frame and assemble the animated GIF.
func EncodeAnimation(w io.Writer, encodedFrames []string) error {
	frames := make([][]byte, 0, len(encodedFrames))
	for i, ef := range encodedFrames {
		pix, err := raytracer.DecodeFrame(ef, FrameWidth, FrameHeight)
		if err != nil {
			return fmt.Errorf("gif-encoder: frame %d: %w", i, err)
		}
		frames = append(frames, pix)
	}
	return raytracer.EncodeGIF(w, frames, FrameWidth, FrameHeight, 8)
}
