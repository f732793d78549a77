// Package pullstream is a faithful Go port of the pull-stream design
// pattern that Pando's implementation is organized around (paper §2.4.2,
// Figures 5 and 6).
//
// The callback protocol consists of a request followed by an answer. A
// request may ask for a value (abort == nil), abort the stream normally
// (abort == ErrAborted or ErrDone), or fail because of an error (any other
// non-nil abort). Symmetrically the answer may produce a value (end == nil),
// signify the end of the stream (end == ErrDone), or stop because of an
// error (any other non-nil end).
//
// A Source is a function that answers one request at a time: a caller must
// not issue a new request before the previous request has been answered.
// A Sink consumes a Source until it is done. A Through transforms a Source
// into another Source; pipelines are built by ordinary function
// composition, mirroring pull(source, through..., sink) in JavaScript.
package pullstream

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrDone is the sentinel "end" signal of the pull-stream protocol. It is
// the Go rendering of the JavaScript protocol's literal `true`: a source
// answers (ErrDone, zero) when the stream terminated normally, and a caller
// requests with abort == ErrDone to shut a source down without error.
var ErrDone = errors.New("pullstream: done")

// ErrAborted is returned by sources that were aborted by a downstream
// request before producing all of their values.
var ErrAborted = errors.New("pullstream: aborted")

// IsNormalEnd reports whether end is a normal termination (done or
// aborted) rather than a failure.
func IsNormalEnd(end error) bool {
	return errors.Is(end, ErrDone) || errors.Is(end, ErrAborted)
}

// Callback answers a single request. end == nil delivers v; end == ErrDone
// signals normal termination; any other error signals failure.
type Callback[T any] func(end error, v T)

// Source answers requests one at a time. abort == nil asks for the next
// value; a non-nil abort instructs the source to release its resources and
// answer with a non-nil end (conventionally the same abort value).
type Source[T any] func(abort error, cb Callback[T])

// Sink consumes a source until it is done.
type Sink[T any] func(src Source[T])

// Through transforms a source of I into a source of O.
type Through[I, O any] func(src Source[I]) Source[O]

// Duplex pairs a Source and a Sink, representing one endpoint of a
// bidirectional stream such as a network channel or a StreamLender
// sub-stream (paper Figure 9).
type Duplex[In, Out any] struct {
	// Sink consumes the values flowing into this endpoint.
	Sink Sink[In]
	// Source produces the values flowing out of this endpoint.
	Source Source[Out]
}

// answer carries one protocol answer through a channel.
type answer[T any] struct {
	end error
	v   T
}

// Puller is the bridge from the callback protocol to Go's synchronous
// style: it issues requests against one source and blocks until each is
// answered. Requests on a source are strictly serial, so one reply channel
// and one callback serve the whole stream — a pull allocates nothing.
type Puller[T any] struct {
	src Source[T]
	ch  chan answer[T]
	cb  Callback[T]
}

// NewPuller returns a puller on src.
func NewPuller[T any](src Source[T]) *Puller[T] {
	p := &Puller[T]{src: src, ch: make(chan answer[T], 1)}
	p.cb = func(end error, v T) { p.ch <- answer[T]{end: end, v: v} }
	return p
}

// Pull issues one request (an ask when abort is nil) and waits for its
// answer.
func (p *Puller[T]) Pull(abort error) (T, error) {
	p.src(abort, p.cb)
	a := <-p.ch
	return a.v, a.end
}

// Count returns a source that lazily counts from 1 to n, mirroring the
// source of the paper's Figure 5.
func Count(n int) Source[int] {
	i := 0
	return func(abort error, cb Callback[int]) {
		if abort != nil {
			cb(abort, 0)
			return
		}
		if i >= n {
			cb(ErrDone, 0)
			return
		}
		i++
		cb(nil, i)
	}
}

// Values returns a source producing the given values in order.
func Values[T any](vs ...T) Source[T] {
	i := 0
	return func(abort error, cb Callback[T]) {
		var zero T
		if abort != nil {
			cb(abort, zero)
			return
		}
		if i >= len(vs) {
			cb(ErrDone, zero)
			return
		}
		v := vs[i]
		i++
		cb(nil, v)
	}
}

// Drain consumes src, invoking each for every value, until the source is
// done. If each returns a non-nil error the source is aborted with that
// error and the error is returned. A nil each discards the values.
func Drain[T any](src Source[T], each func(T) error) error {
	p := NewPuller(src)
	for {
		v, end := p.Pull(nil)
		if end != nil {
			if IsNormalEnd(end) {
				return nil
			}
			return end
		}
		if each == nil {
			continue
		}
		if err := each(v); err != nil {
			_, abortEnd := p.Pull(err)
			if abortEnd != nil && !IsNormalEnd(abortEnd) && !errors.Is(abortEnd, err) {
				return fmt.Errorf("%w (abort also failed: %v)", err, abortEnd)
			}
			return err
		}
	}
}

// Pump consumes src like Drain without ever waiting for an answer: it
// asks on the calling goroutine while src answers synchronously, and
// returns at the first ask left pending, whose answerer then runs each and
// the next ask; done gets the end. Synchronous answers loop rather than
// recurse, so the stack stays flat.
func Pump[T any](src Source[T], each func(T), done func(error)) {
	const asking, answered, pending = 0, 1, 2 // the latest ask's state
	var state atomic.Int32
	var cb Callback[T]
	ask := func() {
		for {
			state.Store(asking)
			src(nil, cb)
			if state.CompareAndSwap(asking, pending) {
				return
			}
		}
	}
	cb = func(end error, v T) {
		if end != nil {
			done(end)
			return
		}
		each(v)
		if !state.CompareAndSwap(asking, answered) {
			ask()
		}
	}
	ask()
}

// Collect consumes src and returns all of its values.
func Collect[T any](src Source[T]) ([]T, error) {
	var out []T
	err := Drain(src, func(v T) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

// Map transforms each value of the source with fn.
func Map[I, O any](fn func(I) O) Through[I, O] {
	return func(src Source[I]) Source[O] {
		return func(abort error, cb Callback[O]) {
			src(abort, func(end error, v I) {
				var zero O
				if end != nil {
					cb(end, zero)
					return
				}
				cb(nil, fn(v))
			})
		}
	}
}

// Filter keeps only the values for which pred returns true.
func Filter[T any](pred func(T) bool) Through[T, T] {
	return func(src Source[T]) Source[T] {
		var pull func(abort error, cb Callback[T])
		pull = func(abort error, cb Callback[T]) {
			src(abort, func(end error, v T) {
				if end != nil {
					cb(end, v)
					return
				}
				if pred(v) {
					cb(nil, v)
					return
				}
				pull(nil, cb)
			})
		}
		return pull
	}
}

// Tap invokes each on every answer of src — values and the end signal
// alike — before passing it on unchanged. Requests on a source are
// strictly serial, so the wrapper keeps the one pending callback in place
// and a pull through it allocates nothing.
func Tap[T any](src Source[T], each func(end error, v T)) Source[T] {
	var asked Callback[T]
	answer := func(end error, v T) {
		each(end, v)
		asked(end, v)
	}
	return func(abort error, cb Callback[T]) {
		asked = cb
		src(abort, answer)
	}
}

// FromChan adapts a receive channel into a source. The source ends
// normally when the channel is closed. If errc is non-nil and delivers an
// error before the channel closes, the source fails with it.
func FromChan[T any](ch <-chan T, errc <-chan error) Source[T] {
	var ended error
	return func(abort error, cb Callback[T]) {
		var zero T
		if abort != nil {
			ended = abort
			cb(abort, zero)
			return
		}
		if ended != nil {
			cb(ended, zero)
			return
		}
		if errc == nil {
			v, ok := <-ch
			if !ok {
				ended = ErrDone
				cb(ErrDone, zero)
				return
			}
			cb(nil, v)
			return
		}
		select {
		case v, ok := <-ch:
			if !ok {
				ended = ErrDone
				cb(ErrDone, zero)
				return
			}
			cb(nil, v)
		case err := <-errc:
			if err == nil {
				err = ErrDone
			}
			ended = err
			cb(err, zero)
		}
	}
}

// ToChan drains src into a new channel, closed when the source ends. Once
// ctx is done it stops sending and aborts src. A failure, or ctx.Err(), is
// delivered on the returned error channel (capacity 1).
func ToChan[T any](ctx context.Context, src Source[T]) (<-chan T, <-chan error) {
	out := make(chan T)
	errc := make(chan error, 1)
	go func() {
		defer close(out)
		err := Drain(src, func(v T) error {
			select {
			case out <- v:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		if err != nil && !IsNormalEnd(err) {
			errc <- err
		}
		close(errc)
	}()
	return out, errc
}
