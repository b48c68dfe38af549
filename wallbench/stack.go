package main

import (
	"errors"
	"fmt"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/server"
	"bpwrapper/internal/storage"
)

// stack is one instance of the program under test, in the page server's
// default configuration: 2Q behind BP-Wrapper with batching and
// prefetching, one shard, the background writer at its defaults (100 ms
// rounds, 64 pages), a 4096-entry flight recorder, the health ladder on,
// request tracing and the self-tuning controller off. Wire workloads add
// the page server on 127.0.0.1 and one client connection per worker.
type stack struct {
	dev     *storage.MemDevice
	pool    *buffer.Pool
	bw      *buffer.BackgroundWriter
	srv     *server.Server
	reg     *obs.Registry
	clients [workers]*server.Client
}

// newStack builds the stack; with a tracer, the policy and the device are
// wrapped in the timing decorators.
func newStack(sp spec, in *inputs, tr *tracer) (*stack, error) {
	st := &stack{dev: storage.NewMemDevice()}
	var dev storage.Device = st.dev
	factory := func(c int) replacer.Policy { return replacer.NewTwoQ(c) }
	if tr != nil {
		dev = &tracedDevice{Device: st.dev, t: tr}
		factory = func(c int) replacer.Policy { return tracePolicy(replacer.NewTwoQ(c), tr) }
	}
	st.pool = buffer.New(buffer.Config{
		Frames:        sp.frames,
		Shards:        1,
		PolicyFactory: factory,
		Wrapper:       core.Config{Batching: true, Prefetching: true},
		Device:        dev,
		RecorderSize:  4096,
	})
	if sp.prewarm {
		if err := st.pool.Prewarm(in.ids); err != nil {
			return nil, fmt.Errorf("prewarm: %w", err)
		}
	}
	st.bw = st.pool.StartBackgroundWriter(buffer.BackgroundWriterConfig{})
	if !sp.wire {
		return st, nil
	}
	srv, err := server.New(server.Config{Pool: st.pool, Addr: "127.0.0.1:0"})
	if err != nil {
		st.bw.Stop()
		return nil, fmt.Errorf("start server: %w", err)
	}
	st.srv = srv
	st.reg = obs.NewRegistry()
	srv.RegisterObs(st.reg)
	for w := range st.clients {
		if st.clients[w], err = server.Dial(srv.Addr()); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// close tears the stack down without checks.
func (st *stack) close() {
	st.stopServing()
	st.bw.Stop()
	st.pool.Close()
}

func (st *stack) stopServing() {
	for _, c := range st.clients {
		if c != nil {
			c.Close()
		}
	}
	if st.srv != nil {
		st.srv.Close()
	}
}

// setup builds the stack n times and keeps the last one, returning it with
// the median build time. Earlier builds are torn down before the next
// starts, with a collection in between so each build starts from the same
// heap state.
func setup(sp spec, in *inputs, tr *tracer, n int) (*stack, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		collect()
		t0 := time.Now()
		st, err := newStack(sp, in, tr)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return st, median(times), nil
		}
		st.close()
	}
}

// finish stops the stack and runs the closing output checks: the pool's
// structural invariants after a final flush, then every written page read
// back from the device after Close.
func (st *stack) finish(verify func(func(page.PageID, *page.Page) error) (int, error)) (invariants bool, durable int, err error) {
	st.stopServing()
	st.bw.Stop()
	var errs []error
	if _, err := st.pool.FlushDirty(); err != nil {
		errs = append(errs, fmt.Errorf("final flush: %w", err))
	}
	if err := st.pool.CheckInvariants(); err != nil {
		errs = append(errs, fmt.Errorf("invariants: %w", err))
	} else {
		invariants = true
	}
	if err := st.pool.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close: %w", err))
	}
	durable, err = verify(st.dev.ReadPage)
	if err != nil {
		errs = append(errs, fmt.Errorf("durability: %w", err))
	}
	return invariants, durable, errors.Join(errs...)
}
