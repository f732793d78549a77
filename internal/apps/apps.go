// Package apps implements the seven applications of the paper's Section 4,
// organized along their dataflow patterns:
//
//   - Pipeline processing (§4.1, Figure 10): Collatz, Raytrace, Arxiv,
//     StreamLender test, ML agent, Image processing (http).
//   - Synchronous parallel search (§4.2, Figure 11): crypto-currency
//     mining.
//   - Stubborn processing with failure-prone external data distribution
//     (§4.3, Figure 12): image processing over DAT / WebTorrent-like
//     stores.
//
// Each application exposes its processing function (the code a volunteer
// runs), an input generator, and the post-processing step of its Unix
// pipeline. RegisterAll registers every processing function in the
// volunteer registry so a generic volunteer binary can serve any of them.
package apps

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	pando "pando"
	"pando/internal/chain"
	"pando/internal/qlearn"
	"pando/internal/worker"
)

// Canonical registry names for the applications' processing functions.
const (
	CollatzFunc = "collatz"
	RenderFunc  = "render"
	ArxivFunc   = "arxiv-tag"
	SLTestFunc  = "sl-test"
	MLAgentFunc = "ml-agent"
	ImgProcFunc = "img-proc-http"
	MineFunc    = "mine"
	ImgBlurP2P  = "img-proc-p2p"
)

var registerAllOnce sync.Once

// flexible adapts a typed processing function so the registry entry
// accepts both encodings a master may send: the direct JSON encoding of I
// (typed library masters) and a JSON *string* carrying a textual
// representation of I (the CLI, whose inputs arrive as lines on the
// standard input, as in the paper's Figure 3 pipeline). fromString parses
// the textual form.
func flexible[I, O any](f func(I) (O, error), fromString func(string) (I, error)) worker.Handler {
	direct := pando.Handler(f)
	return func(dst, input []byte) ([]byte, error) {
		out, directErr := direct(dst, input)
		if directErr == nil {
			return out, nil
		}
		var s string
		if err := json.Unmarshal(input, &s); err != nil {
			return nil, directErr
		}
		v, err := fromString(s)
		if err != nil {
			return nil, fmt.Errorf("apps: %w (direct decode also failed: %v)", err, directErr)
		}
		r, err := f(v)
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	}
}

// jsonString parses the textual form of a JSON-encoded input value.
func jsonString[I any](s string) (I, error) {
	var v I
	err := json.Unmarshal([]byte(s), &v)
	return v, err
}

// RegisterAll registers every application's processing function in the
// volunteer registry. Safe to call multiple times.
func RegisterAll() {
	registerAllOnce.Do(func() {
		worker.Register(CollatzFunc, pando.Handler(CollatzSteps))
		worker.Register(RenderFunc, pando.Handler(RenderFrame))
		worker.Register(ArxivFunc, pando.Handler(TagPaper))
		worker.Register(SLTestFunc, flexible(RunRandomCheck, func(s string) (int64, error) {
			return strconv.ParseInt(s, 10, 64)
		}))
		worker.Register(MLAgentFunc, flexible(TrainAgent, jsonString[qlearn.Params]))
		worker.Register(ImgProcFunc, flexible(BlurTileHTTP, jsonString[TileJob]))
		worker.Register(MineFunc, flexible(MineAttempt, jsonString[chain.Attempt]))
	})
}
