package main

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/server"
)

// failKinds counts failed accesses by cause.
type failKinds struct {
	NoBuffers  int64 `json:"no_unpinned_buffers"`
	Overloaded int64 `json:"overloaded"`
	Transport  int64 `json:"transport"`
	Status     int64 `json:"status"`
}

func (f *failKinds) add(o failKinds) {
	f.NoBuffers += o.NoBuffers
	f.Overloaded += o.Overloaded
	f.Transport += o.Transport
	f.Status += o.Status
}

func (f failKinds) total() int64 { return f.NoBuffers + f.Overloaded + f.Transport + f.Status }

// count classifies one failed access. Errors that are neither buffer
// exhaustion nor shedding are non-OK replies (in process, any other pool
// error).
func (f *failKinds) count(err error) {
	switch {
	case errors.Is(err, buffer.ErrNoUnpinnedBuffers):
		f.NoBuffers++
	case errors.Is(err, buffer.ErrOverloaded):
		f.Overloaded++
	default:
		f.Status++
	}
}

// tally is what workers count during one phase. A failed access counts
// toward attempted and fails only; a transaction with a failed access
// leaves no latency sample.
type tally struct {
	attempted int64
	done      int64 // accesses completed
	writes    int64 // write accesses completed
	busyNs    int64 // time inside completed Do bursts (wire)
	reads     int64 // page contents checked
	badReads  int64 // page contents that failed the check
	fails     failKinds
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.done += o.done
	t.writes += o.writes
	t.busyNs += o.busyNs
	t.reads += o.reads
	t.badReads += o.badReads
	t.fails.add(o.fails)
}

// worker replays its trace cyclically, one transaction at a time, as a
// closed-loop client.
type worker struct {
	id    int
	trace []uint32
	ends  []int32
	txn   int          // next transaction
	ops   atomic.Int64 // completed accesses, read live by the sampler
	wrote atomic.Int64 // completed write accesses, read live by the sampler
	tally tally
	lat   []hist // txn latency per sub-window
	err   error  // why the worker stopped early

	sess   *buffer.Session
	client *server.Client
	ops0   []server.Op
	puts   [][]byte
	vers   []uint64
	_      [64]byte
}

func (w *worker) nextTxn() (lo, hi int) {
	if w.txn > 0 {
		lo = int(w.ends[w.txn-1])
	}
	hi = int(w.ends[w.txn])
	if w.txn++; w.txn == len(w.ends) {
		w.txn = 0
	}
	return lo, hi
}

// phase coordinates one run of the workers.
type phase struct {
	stop   atomic.Bool
	window atomic.Int32 // sub-window receiving latency samples; -1 = none
}

// runner drives one stack with the workload's workers.
type runner struct {
	sp   spec
	in   *inputs
	st   *stack
	tr   *tracer // nil in the untraced run
	led  *ledger
	wled *wireLedger
	ws   [workers]*worker
	addr string
	past tally // counts of earlier phases, for the output checks
}

func newRunner(sp spec, in *inputs, st *stack, tr *tracer) *runner {
	r := &runner{sp: sp, in: in, st: st, tr: tr}
	if sp.wire {
		r.wled = newWireLedger(in)
		r.addr = st.srv.Addr()
	} else {
		r.led = newLedger(in)
	}
	for i := range r.ws {
		w := &worker{id: i, trace: in.traces[i], ends: in.txnEnds[i]}
		if sp.wire {
			w.client = st.clients[i]
		} else {
			w.sess = st.pool.NewSession()
		}
		r.ws[i] = w
	}
	return r
}

// run runs every worker until ph stops, then returns.
func (r *runner) run(ph *phase) {
	var wg sync.WaitGroup
	for _, w := range r.ws {
		if w.err != nil {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if r.sp.wire {
				r.wireLoop(w, ph)
			} else {
				r.poolLoop(w, ph)
			}
		}(w)
	}
	wg.Wait()
}

// reset clears the workers' counters and gives them n sub-window
// histograms, between phases.
func (r *runner) reset(n int) {
	for _, w := range r.ws {
		r.past.add(w.tally)
		w.tally = tally{}
		w.ops.Store(0)
		w.wrote.Store(0)
		w.lat = make([]hist, n)
	}
}

// done returns the accesses and the write accesses completed so far in
// the phase.
func (r *runner) done() (ops, writes int64) {
	for _, w := range r.ws {
		ops += w.ops.Load()
		writes += w.wrote.Load()
	}
	return ops, writes
}

func (r *runner) tally() tally {
	var t tally
	for _, w := range r.ws {
		t.add(w.tally)
	}
	return t
}

// poolLoop drives the pool in process: per access, Get or GetWrite, check
// the page (and bump its write count), Release.
func (r *runner) poolLoop(w *worker, ph *phase) {
	pool, tr, t := r.st.pool, r.tr, &w.tally
	for !ph.stop.Load() {
		lo, hi := w.nextTxn()
		win := ph.window.Load()
		txnSlot, txnStart := int32(-1), int64(0)
		if tr != nil {
			txnSlot, txnStart = tr.reserve(), tr.now()
		}
		t0 := time.Now()
		ok := true
		n, nw := int64(0), int64(0)
		for _, e := range w.trace[lo:hi] {
			idx, write := e&^writeBit, e&writeBit != 0
			id := r.in.ids[idx]
			t.attempted++
			var slot int32
			var s0 int64
			if tr != nil {
				slot, s0 = tr.reserve(), tr.now()
				tr.enter(w.id, slot, id)
			}
			var ref *buffer.PageRef
			var err error
			if write {
				ref, err = pool.GetWrite(w.sess, id)
			} else {
				ref, err = pool.Get(w.sess, id)
			}
			if tr != nil {
				s1 := tr.now()
				tr.leave(w.id)
				tr.put(slot, span{start: s0, dur: int32(s1 - s0), parent: txnSlot + 1, kind: kindGet})
			}
			if err != nil {
				t.fails.count(err)
				ok = false
				continue
			}
			good := false
			if write {
				good = r.led.write(idx, ref.Data())
				ref.MarkDirty()
				nw++
			} else {
				good = r.led.read(idx, ref.Data())
			}
			t.reads++
			if !good {
				t.badReads++
			}
			if tr != nil {
				slot, s0 = tr.reserve(), tr.now()
				tr.enter(w.id, slot, id)
			}
			ref.Release()
			if tr != nil {
				s1 := tr.now()
				tr.leave(w.id)
				tr.put(slot, span{start: s0, dur: int32(s1 - s0), parent: txnSlot + 1, kind: kindRelease})
			}
			n++
		}
		d := time.Since(t0)
		t.done += n
		t.writes += nw
		w.ops.Add(n)
		w.wrote.Add(nw)
		if ok && win >= 0 {
			w.lat[win].record(int64(d))
		}
		if tr != nil {
			tr.put(txnSlot, span{start: txnStart, dur: int32(tr.now() - txnStart), kind: kindTxn})
		}
	}
	w.sess.Flush()
}

// wireLoop sends each transaction as one pipelined burst: GET for reads,
// full-page PUT for writes.
func (r *runner) wireLoop(w *worker, ph *phase) {
	tr, t := r.tr, &w.tally
	for !ph.stop.Load() {
		lo, hi := w.nextTxn()
		win := ph.window.Load()
		ops, np := w.ops0[:0], 0
		for _, e := range w.trace[lo:hi] {
			idx := e &^ writeBit
			op := server.Op{Code: server.OpGet, Page: r.in.ids[idx]}
			if e&writeBit != 0 {
				if np == len(w.puts) {
					w.puts = append(w.puts, make([]byte, page.Size))
					w.vers = append(w.vers, 0)
				}
				w.vers[np] = r.wled.nextPut(w.id, idx, w.puts[np])
				op.Code, op.Data = server.OpPut, w.puts[np]
				np++
			}
			ops = append(ops, op)
		}
		w.ops0 = ops
		t.attempted += int64(len(ops))
		var slot int32
		var s0 int64
		if tr != nil {
			slot, s0 = tr.reserve(), tr.now()
			tr.enter(w.id, slot, 0)
		}
		t0 := time.Now()
		res, err := w.client.Do(ops)
		d := time.Since(t0)
		if tr != nil {
			s1 := tr.now()
			tr.leave(w.id)
			tr.put(slot, span{start: s0, dur: int32(s1 - s0), arg: int32(len(ops)), kind: kindDo})
		}
		if err != nil {
			t.fails.Transport += int64(len(ops))
			r.lostPuts(w, lo, ops)
			w.client.Close()
			if w.client, err = server.Dial(r.addr); err != nil {
				w.err = err
				return
			}
			r.st.clients[w.id] = w.client
			continue
		}
		ok := true
		n, nw, put := int64(0), int64(0), 0
		for i, res := range res {
			idx := w.trace[lo+i] &^ writeBit
			isPut := ops[i].Code == server.OpPut
			if isPut {
				put++
			}
			if res.Err != nil {
				t.fails.count(res.Err)
				ok = false
				continue
			}
			if isPut {
				r.wled.last[w.id][idx] = w.vers[put-1]
				nw++
			} else {
				t.reads++
				if !r.wled.read(idx, res.Data) {
					t.badReads++
				}
			}
			n++
		}
		t.done += n
		t.writes += nw
		t.busyNs += int64(d)
		w.ops.Add(n)
		w.wrote.Add(nw)
		if ok && win >= 0 {
			w.lat[win].record(int64(d))
		}
	}
}

// lostPuts records the PUTs of a burst that failed in transport: the
// server may or may not have applied them.
func (r *runner) lostPuts(w *worker, lo int, ops []server.Op) {
	put := 0
	for i, op := range ops {
		if op.Code != server.OpPut {
			continue
		}
		idx := w.trace[lo+i] &^ writeBit
		r.wled.unknown[w.id][idx] = append(r.wled.unknown[w.id][idx], w.vers[put])
		put++
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// collect runs a full collection and returns freed memory to the OS, so
// what follows starts from the same heap state each time.
func collect() {
	runtime.GC()
	debug.FreeOSMemory()
}
