package pullstream

import (
	"fmt"
	"sync"
)

// Violation describes a breach of the pull-stream callback protocol
// observed by a Checker.
type Violation struct {
	// Kind is one of "concurrent-request", "answer-after-end",
	// "double-answer" or "request-after-end".
	Kind string
	// Detail is a human-readable explanation.
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Checker validates the pull-stream protocol invariants on the boundary
// between two modules. It is the mechanism behind the paper's
// "StreamLender test" application (§4.1), which performs random executions
// to find protocol violations.
type Checker[T any] struct {
	mu         sync.Mutex
	inFlight   bool
	ended      bool
	requests   int
	answers    int
	violations []Violation
}

// NewChecker returns an empty checker ready for use.
func NewChecker[T any]() *Checker[T] { return &Checker[T]{} }

// Violations returns all violations recorded so far.
func (c *Checker[T]) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Requests returns how many requests passed through the checker.
func (c *Checker[T]) Requests() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests
}

func (c *Checker[T]) record(kind, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Wrap instruments src, recording any protocol violation committed by
// either side of the boundary.
func (c *Checker[T]) Wrap(src Source[T]) Source[T] {
	return func(abort error, cb Callback[T]) {
		c.mu.Lock()
		c.requests++
		if c.inFlight {
			c.record("concurrent-request",
				"request #%d issued before request #%d was answered",
				c.requests, c.requests-1)
		}
		if c.ended && abort == nil {
			c.record("request-after-end",
				"ask request #%d issued after the stream ended", c.requests)
		}
		c.inFlight = true
		c.mu.Unlock()

		answered := false
		src(abort, func(end error, v T) {
			c.mu.Lock()
			c.answers++
			if answered {
				c.record("double-answer",
					"answer #%d delivered twice", c.answers)
			}
			answered = true
			if c.ended && end == nil {
				c.record("answer-after-end",
					"value answered after the stream ended")
			}
			if end != nil {
				c.ended = true
			}
			c.inFlight = false
			c.mu.Unlock()
			cb(end, v)
		})
	}
}
