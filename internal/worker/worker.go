// Package worker implements the Volunteer side of Pando (paper Figure 7):
// a processor that joins a master by "opening the URL", resolves the
// processing function, and applies it to a stream of inputs — the
// Worker (browser tab) of the paper.
//
// Code shipping substitution: the JavaScript implementation browserifies
// the user's function and serves it to the volunteer's browser. A Go
// binary cannot load code at runtime, so volunteers carry a registry of
// named processing functions; the master's welcome message names the one
// to apply. The observable behaviour — a generic volunteer binary that
// works for any project — is preserved.
package worker

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pando/internal/blob"
	"pando/internal/proto"
	"pando/internal/transport"
)

// Handler is a registered processing function operating on raw payloads;
// applications decode and encode their own value types inside it,
// mirroring the glue code of the paper's Figure 2. It appends the encoded
// result of input to dst and returns the extended slice, as append does:
// the serve loop passes a pooled buffer the result frame then owns (dst
// may be nil). Returning other memory is safe too — the input itself, a
// slice of the handler's own — and costs that buffer's reuse only. A
// Handler retains neither argument past return: both are recycled.
type Handler func(dst, input []byte) ([]byte, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Handler)
)

// Register adds a named processing function to the volunteer registry.
// It panics on duplicate registration, which is a programming error.
func Register(name string, h Handler) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("worker: duplicate registration of %q", name))
	}
	registry[name] = h
}

// Lookup resolves a registered function.
func Lookup(name string) (Handler, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	h, ok := registry[name]
	return h, ok
}

// Registered lists the registered function names, sorted.
func Registered() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ErrCrashed is the internal signal a Volunteer uses to simulate a
// crash-stop failure (a browser tab suddenly closed).
var ErrCrashed = errors.New("worker: injected crash")

// Volunteer is one participating device process.
type Volunteer struct {
	// Name identifies the device in the master's accounting (e.g.
	// "iPhone SE"); empty lets the master assign one.
	Name string
	// Channel tunes heartbeats.
	Channel transport.Config
	// Handler overrides the registry lookup when non-nil (useful for
	// tests and for single-purpose volunteers).
	Handler Handler
	// Delay adds per-item processing time, simulating a slower device
	// (the device profiles of the evaluation harness).
	Delay time.Duration
	// CrashAfter makes the volunteer crash abruptly after processing
	// that many items; negative means never. The crash severs the
	// connection without a goodbye, the paper's crash-stop failure.
	CrashAfter int
	// Functions overrides the function list the hello advertises — what a
	// shared pool routes and reassigns the device by. The single entry
	// "*" advertises "any function" (pair it with Handler or Resolve).
	// Empty advertises the global registry when Handler and Resolve are
	// nil, and nothing otherwise — a volunteer that advertises nothing is
	// routed once, to a compatible job, and never reassigned.
	Functions []string
	// Resolve overrides the global registry lookup when non-nil, letting
	// embedders (e.g. a pando.Pool's local workers) resolve reassignment
	// targets from their own handler table.
	Resolve func(name string) (Handler, bool)
	// BlobCacheBytes caps the content-addressed payload cache: repeated
	// payloads the master references by digest resolve from here instead
	// of re-crossing the link. Zero means blob.DefaultCacheBytes; negative
	// degenerates the cache to a single most-recent block (references
	// beyond it miss and fetch). The cache lives as long as the Volunteer
	// and is keyed by content, so it stays valid across rejoins and fleet
	// reassignment.
	BlobCacheBytes int64

	mu        sync.Mutex
	processed int
	sessions  uint64 // join incarnations served (rejoins send > 0)
	nonce     string // per-instance token identifying rejoins to the master
	cache     *blob.Cache
}

// blobCache lazily creates the volunteer's content-addressed cache.
func (v *Volunteer) blobCache() *blob.Cache {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cache == nil {
		v.cache = blob.NewCache(v.BlobCacheBytes)
	}
	return v.cache
}

// PoisonBlobCache flips a byte of the newest entry in the volunteer's
// blob cache, if any — the chaos suite's hook for proving a corrupted
// cache entry surfaces as a digest mismatch on the next reference and
// crash-stops the channel instead of handing wrong bytes to the
// processing function.
func (v *Volunteer) PoisonBlobCache() bool { return v.blobCache().PoisonNewest() }

// Processed returns how many items this volunteer completed.
func (v *Volunteer) Processed() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.processed
}

// JoinWS joins a master over an established raw connection using the
// WebSocket-like channel, performs the handshake, and serves until the
// stream completes, the volunteer crashes, or the channel fails.
func (v *Volunteer) JoinWS(conn net.Conn) error {
	ch := transport.NewWSock(conn, v.Channel)
	return v.serve(ch)
}

// JoinURL performs the full volunteer bootstrap of the paper's §2.1.2:
// fetch the deployment invitation from the URL the master printed on
// startup, then join over the transport it names — a direct
// WebSocket-like connection, or signalling through a public server
// followed by a direct WebRTC-like channel. dial opens raw connections
// (use transport.TCPDialer for real networks).
func (v *Volunteer) JoinURL(url string, dial transport.Dialer) error {
	inv, err := proto.FetchInvitation(url)
	if err != nil {
		return err
	}
	switch inv.Transport {
	case "ws", "":
		conn, err := dial(inv.DataAddr)
		if err != nil {
			return fmt.Errorf("worker: dial %s: %w", inv.DataAddr, err)
		}
		return v.JoinWS(conn)
	case "webrtc":
		sc, err := dial(inv.DataAddr)
		if err != nil {
			return fmt.Errorf("worker: dial signalling %s: %w", inv.DataAddr, err)
		}
		signal := transport.NewWSock(sc, v.Channel)
		self := v.Name
		if self == "" {
			self = fmt.Sprintf("volunteer-%p", v)
		}
		return v.JoinRTC(signal, self, inv.MasterID, dial)
	default:
		return fmt.Errorf("worker: unsupported transport %q in invitation", inv.Transport)
	}
}

// JoinRTC joins a master through the WebRTC-like bootstrap: signalling
// via the public server channel, then a direct connection (paper §5.4).
// An empty masterID is pool mode: the relay assigns a registered master,
// guided by the functions this volunteer advertises.
func (v *Volunteer) JoinRTC(signal *transport.WSock, selfID, masterID string, dial transport.Dialer) error {
	if err := transport.JoinSignal(signal, selfID); err != nil {
		signal.Close()
		return err
	}
	ch, err := transport.RTCOfferServing(signal, selfID, masterID, v.advertised(), dial, v.Channel)
	if err != nil {
		// A failed bootstrap must release the signalling registration:
		// a retry loop would otherwise collide with its own stale peer
		// ID (and leak one connection per attempt).
		signal.Close()
		return err
	}
	return v.serve(ch)
}

// advertised returns the function list the hello carries: the explicit
// Functions override, or the global registry for registry-backed
// volunteers. A volunteer with an explicit Handler or Resolve and no
// override advertises nothing, so the pool routes it once, to a
// compatible job, and never reassigns it.
func (v *Volunteer) advertised() []string {
	if len(v.Functions) > 0 {
		return v.Functions
	}
	if v.Handler == nil && v.Resolve == nil {
		return Registered()
	}
	return nil
}

// resolve maps a function name to a processing handler: the fixed
// Handler when set, then the Resolve hook, then the global registry.
func (v *Volunteer) resolve(name string) (Handler, error) {
	if v.Handler != nil {
		return v.Handler, nil
	}
	if v.Resolve != nil {
		if h, ok := v.Resolve(name); ok {
			return h, nil
		}
		return nil, fmt.Errorf("worker: unknown function %q", name)
	}
	if h, ok := Lookup(name); ok {
		return h, nil
	}
	return nil, fmt.Errorf("worker: unknown function %q (registered: %v)", name, Registered())
}

// incarnation returns this join's incarnation number and the volunteer's
// instance token. A rejoin (incarnation > 0) lets the master sever the
// previous incarnation's half-open sessions instead of waiting out their
// heartbeats — the crash-recovery footnote of the paper's §2.3 without
// stale flow-control state surviving the reattach.
func (v *Volunteer) incarnation() (uint64, string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.nonce == "" {
		var b [12]byte
		if _, err := rand.Read(b[:]); err == nil {
			v.nonce = hex.EncodeToString(b[:])
		} else {
			v.nonce = fmt.Sprintf("volunteer-%p", v)
		}
	}
	seq := v.sessions
	v.sessions++
	return seq, v.nonce
}

func (v *Volunteer) serve(conn *transport.WSock) error {
	// The Functions list advertises the jobs the device can serve.
	seq, nonce := v.incarnation()
	welcome, err := transport.Hello(conn, &proto.Message{
		Peer:      v.Name,
		Functions: v.advertised(),
		Seq:       seq,
		Token:     nonce,
	})
	if err != nil {
		return err
	}

	// The master may send digest-only payload references; the dedup
	// receiver resolves them against the volunteer's blob cache (fetching
	// on a miss) before the serve loop sees the frame.
	ch := transport.DedupWorkerChannel(conn, v.blobCache())

	h, err := v.resolve(welcome.Func)
	if err != nil {
		ch.Close()
		return err
	}
	var hmu sync.Mutex

	wrapped := func(dst, input []byte) ([]byte, error) {
		v.mu.Lock()
		crash := v.CrashAfter >= 0 && v.processed >= v.CrashAfter
		v.mu.Unlock()
		if crash {
			// Sever abruptly: no goodbye, no result — crash-stop.
			ch.Close()
			return nil, ErrCrashed
		}
		if v.Delay > 0 {
			time.Sleep(v.Delay)
		}
		hmu.Lock()
		handler := h
		hmu.Unlock()
		out, err := handler(dst, input)
		if err != nil {
			return nil, err
		}
		v.mu.Lock()
		v.processed++
		v.mu.Unlock()
		return out, nil
	}

	// A pool master may reassign the device to another job mid-session (a
	// reassign frame); switching the handler in place keeps the same
	// connection, credits and accounting alive across jobs.
	reassign := func(name string) (func(dst, input []byte) ([]byte, error), error) {
		nh, err := v.resolve(name)
		if err != nil {
			return nil, err
		}
		hmu.Lock()
		h = nh
		hmu.Unlock()
		return wrapped, nil
	}

	err = transport.WorkerServe(ch, wrapped, reassign)
	if err != nil && v.crashed() {
		return ErrCrashed
	}
	return err
}

func (v *Volunteer) crashed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.CrashAfter >= 0 && v.processed >= v.CrashAfter
}
