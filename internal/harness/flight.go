package harness

import "sync"

// flight is a singleflight cache keyed by string: the first do call for
// a key runs the computation, and concurrent calls for the same key wait
// for its result instead of running it again. A failed computation is
// not cached, so a later call retries it. The zero value is ready to use.
type flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// flightCall is one cache slot; done closes when its computation
// finishes, after which v and err are immutable.
type flightCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// do returns the cached result for key, computing it with compute on
// first use.
func (f *flight[V]) do(key string, compute func() (V, error)) (V, error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.v, c.err = compute()
	if c.err != nil {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
	}
	close(c.done)
	return c.v, c.err
}

// peek returns key's value only if its computation has already finished
// successfully, without starting or waiting on one.
func (f *flight[V]) peek(key string) (V, bool) {
	f.mu.Lock()
	c, ok := f.calls[key]
	f.mu.Unlock()
	var zero V
	if !ok {
		return zero, false
	}
	select {
	case <-c.done:
		if c.err != nil {
			return zero, false
		}
		return c.v, true
	default:
		return zero, false
	}
}
