package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/server"
)

// snap is the counter state of every layer at one instant.
type snap struct {
	pool   buffer.Stats
	bw     buffer.BackgroundWriterStats
	srv    server.Stats
	handle handleHist
	mem    runtime.MemStats
}

func (r *runner) snap() snap {
	var s snap
	s.pool = r.st.pool.Stats()
	s.bw = r.st.bw.Stats()
	if r.st.srv != nil {
		s.srv = r.st.srv.Stats()
		s.handle = handleSnapshot(r.st.reg)
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// sample is what the sampler reads at each sub-window boundary while the
// workers run.
type sample struct {
	at        time.Time
	cpu       time.Duration
	ops       int64
	writes    int64
	devWrites int64
	alloc     uint64
}

func (r *runner) sample() sample {
	s := sample{at: time.Now(), cpu: cpuTime(), devWrites: r.st.dev.Stats().Writes}
	s.ops, s.writes = r.done()
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(alloc)
	s.alloc = alloc[0].Value.Uint64()
	return s
}

// sub is one sub-window of a timed window: the difference of the samples
// at its ends, and the latency of the transactions that started in it.
type sub struct {
	dur                    time.Duration
	cpu                    time.Duration
	ops, writes, devWrites int64
	alloc                  uint64
	lat                    hist
}

// window is one timed window: worker counts, sub-windows, and the layer
// counters at both ends.
type window struct {
	dur   time.Duration
	tally tally
	subs  []*sub
	a, b  snap
	heap  uint64 // HeapInuse after a collection at the end of the window
}

// warm runs the workers for d without measuring.
func (r *runner) warm(d time.Duration) {
	r.reset(0)
	ph := &phase{}
	ph.window.Store(-1)
	t := time.AfterFunc(d, func() { ph.stop.Store(true) })
	defer t.Stop()
	r.run(ph)
}

// measure runs the workers for d, split into n sub-windows. The layer
// snapshots bracket the window with the workers stopped, so in-process
// sessions have flushed their staged counts.
func (r *runner) measure(d time.Duration, n int) window {
	r.reset(n)
	w := window{a: r.snap(), subs: make([]*sub, n)}
	ph := &phase{}
	done := make(chan struct{})
	first := r.sample()
	go func() { r.run(ph); close(done) }()
	prev := first
	for i := range w.subs {
		time.Sleep(time.Until(first.at.Add(d * time.Duration(i+1) / time.Duration(n))))
		cur := r.sample()
		next := int32(i + 1)
		if i == n-1 {
			next = -1
		}
		ph.window.Store(next)
		w.subs[i] = &sub{
			dur: cur.at.Sub(prev.at), cpu: cur.cpu - prev.cpu,
			ops: cur.ops - prev.ops, writes: cur.writes - prev.writes,
			devWrites: cur.devWrites - prev.devWrites, alloc: cur.alloc - prev.alloc,
		}
		prev = cur
	}
	w.dur = prev.at.Sub(first.at)
	ph.stop.Store(true)
	<-done
	for i, s := range w.subs {
		for _, wk := range r.ws {
			s.lat.merge(&wk.lat[i])
		}
	}
	w.tally = r.tally()
	w.b = r.snap()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heap = ms.HeapInuse
	return w
}

// tracedWindow is the traced run's window: spans are recorded from its
// start until the span log is nearly full or the time limit passes.
type tracedWindow struct {
	dur  time.Duration
	ops  int64
	a, b snap
}

func (r *runner) traced(limit time.Duration) tracedWindow {
	r.reset(1)
	tw := tracedWindow{a: r.snap()}
	ph := &phase{}
	done := make(chan struct{})
	fill := len(r.tr.log) * 9 / 10
	r.tr.on.Store(true)
	start := time.Now()
	go func() { r.run(ph); close(done) }()
	for time.Since(start) < limit && r.tr.used() < fill {
		time.Sleep(2 * time.Millisecond)
	}
	r.tr.on.Store(false)
	tw.dur = time.Since(start)
	tw.ops, _ = r.done()
	tw.b = r.snap()
	ph.stop.Store(true)
	<-done
	return tw
}

// handleHist is the page server's request-handling latency histogram
// (bpw_server_op_seconds, GET and PUT merged) as scraped from its
// observability registry.
type handleHist struct {
	bounds []time.Duration
	counts []int64
	count  int64
	sum    time.Duration
}

func handleSnapshot(reg *obs.Registry) handleHist {
	var h handleHist
	for _, m := range reg.Gather() {
		if m.Name != "bpw_server_op_seconds" || m.Hist == nil || len(m.Labels) == 0 {
			continue
		}
		if op := m.Labels[0][1]; op != "get" && op != "put" {
			continue
		}
		if len(m.Hist.Bounds) > len(h.bounds) {
			h.bounds = m.Hist.Bounds
			h.counts = append(h.counts, make([]int64, len(m.Hist.Bounds)-len(h.counts))...)
		}
		for i, c := range m.Hist.Counts {
			h.counts[i] += c
		}
		h.count += m.Hist.Count
		h.sum += m.Hist.Sum
	}
	return h
}

// since returns the observations added after o.
func (h handleHist) since(o handleHist) handleHist {
	d := handleHist{bounds: h.bounds, counts: append([]int64(nil), h.counts...), count: h.count - o.count, sum: h.sum - o.sum}
	for i, c := range o.counts {
		d.counts[i] -= c
	}
	return d
}

// quantile interpolates the q-quantile in nanoseconds inside the
// geometric bucket that holds the rank.
func (h handleHist) quantile(q float64) float64 {
	if h.count == 0 || len(h.bounds) < 2 {
		return 0
	}
	growth := float64(h.bounds[1]) / float64(h.bounds[0])
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			hi := float64(h.bounds[i])
			lo := hi / growth
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
