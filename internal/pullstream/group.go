package pullstream

// This file ports the two modules of the pull-stream ecosystem (paper
// §2.4.2: "more than a hundred modules have been contributed") that the
// master's grouped mode composes around the StreamLender: grouping values
// into batches and flattening them back.

// Group collects values into slices of size n (the last group may be
// shorter). It is the input-batching building block: several values can
// then travel in one network message.
func Group[T any](n int) Through[T, []T] {
	if n < 1 {
		n = 1
	}
	return func(src Source[T]) Source[[]T] {
		ended := false
		var endErr error
		return func(abort error, cb Callback[[]T]) {
			if abort != nil {
				src(abort, func(end error, _ T) { cb(end, nil) })
				return
			}
			if ended {
				e := endErr
				if e == nil {
					e = ErrDone
				}
				cb(e, nil)
				return
			}
			group := make([]T, 0, n)
			var pull func()
			pull = func() {
				src(nil, func(end error, v T) {
					if end != nil {
						ended = true
						if !IsNormalEnd(end) {
							endErr = end
						}
						if len(group) > 0 {
							cb(nil, group)
							return
						}
						e := endErr
						if e == nil {
							e = ErrDone
						}
						cb(e, nil)
						return
					}
					group = append(group, v)
					if len(group) == n {
						cb(nil, group)
						return
					}
					pull()
				})
			}
			pull()
		}
	}
}

// Flatten expands slices back into individual values, the inverse of
// Group.
func Flatten[T any]() Through[[]T, T] {
	return func(src Source[[]T]) Source[T] {
		var pending []T
		return func(abort error, cb Callback[T]) {
			var zero T
			if abort != nil {
				src(abort, func(end error, _ []T) { cb(end, zero) })
				return
			}
			if len(pending) > 0 {
				v := pending[0]
				pending = pending[1:]
				cb(nil, v)
				return
			}
			var pull func()
			pull = func() {
				src(nil, func(end error, vs []T) {
					if end != nil {
						cb(end, zero)
						return
					}
					if len(vs) == 0 {
						pull()
						return
					}
					pending = vs[1:]
					cb(nil, vs[0])
				})
			}
			pull()
		}
	}
}
