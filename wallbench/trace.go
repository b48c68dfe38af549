package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// spanKind names the layer call a span covers.
type spanKind uint8

const (
	kindTxn      spanKind = iota + 1 // one in-process transaction (all its accesses)
	kindGet                          // buffer.Pool.Get / GetWrite
	kindRelease                      // buffer.PageRef.Release
	kindDo                           // server.Client.Do: one pipelined burst
	kindHit                          // replacer.Policy.Hit
	kindPrefetch                     // replacer.Prefetcher.Prefetch
	kindAdmit                        // replacer.Policy.Admit
	kindEvict                        // replacer.Policy.Evict
	kindRemove                       // replacer.Policy.Remove
	kindRead                         // storage.Device.ReadPage
	kindWrite                        // storage.Device.WritePage
)

func (k spanKind) isReplacer() bool { return k >= kindHit && k <= kindRemove }
func (k spanKind) isStorage() bool  { return k == kindRead || k == kindWrite }

// spanFromBGWriter flags a device write issued by the background writer.
const spanFromBGWriter = 1

// span is one timed call into a layer. parent is the log index + 1 of the
// causing span, 0 when the caller is unknown.
type span struct {
	start  int64 // ns since the tracer's base
	dur    int32
	parent int32
	arg    int32 // ops in a Do burst, pages in a Prefetch
	kind   spanKind
	flags  uint8
}

// tracer keeps the traced run's spans in one preallocated in-memory log.
// Workers publish the span they are inside (and its page) so the policy and
// device decorators can name a parent: the call belongs to the worker whose
// page it names, or, for calls that name no page, to the only worker inside
// the pool at that moment. With both workers inside, or for background
// writer write-backs, the span keeps no parent and counts as unattributed.
type tracer struct {
	base   time.Time
	on     atomic.Bool
	next   atomic.Int64
	log    []span
	active [workers]activeSlot
}

type activeSlot struct {
	span atomic.Int32
	page atomic.Uint64
	_    [52]byte // one cache line per worker
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), log: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reserve claims a log slot, or returns -1 when tracing is off or the log
// is full.
func (t *tracer) reserve() int32 {
	if !t.on.Load() {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.log)) {
		return -1
	}
	return int32(i)
}

func (t *tracer) used() int {
	return min(int(t.next.Load()), len(t.log))
}

func (t *tracer) put(slot int32, s span) {
	if slot >= 0 {
		t.log[slot] = s
	}
}

// enter publishes that worker w is inside span slot, touching page id.
func (t *tracer) enter(w int, slot int32, id page.PageID) {
	t.active[w].page.Store(uint64(id))
	t.active[w].span.Store(slot + 1)
}

func (t *tracer) leave(w int) { t.active[w].span.Store(0) }

// parentFor names the causing span of a decorator call on page id. A call
// that names no page (id 0) matches any active worker, and so does a
// worker inside a span that covers many pages (published page 0).
func (t *tracer) parentFor(id page.PageID) int32 {
	var parent int32
	found := 0
	for i := range t.active {
		s := t.active[i].span.Load()
		if s == 0 {
			continue
		}
		if pg := t.active[i].page.Load(); id != 0 && pg != 0 && pg != uint64(id) {
			continue
		}
		parent = s
		found++
	}
	if found != 1 {
		return 0
	}
	return parent
}

// child records a decorator span that started at start.
func (t *tracer) child(kind spanKind, id page.PageID, start int64, arg int32, flags uint8) {
	end := t.now()
	slot := t.reserve()
	if slot < 0 {
		return
	}
	parent := int32(0)
	if flags&spanFromBGWriter == 0 {
		parent = t.parentFor(id)
	}
	t.log[slot] = span{start: start, dur: int32(end - start), parent: parent, arg: arg, kind: kind, flags: flags}
}

// spans returns the recorded part of the log.
func (t *tracer) spans() []span { return t.log[:t.used()] }

// writeFile stores the recorded spans as fixed 24-byte little-endian
// records: start ns, duration ns, parent (log index + 1, 0 = none), arg,
// kind, flags and two bytes of padding.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	spans := t.spans()
	buf := make([]byte, 0, 24*len(spans))
	for _, s := range spans {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.start))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.dur))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.parent))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.arg))
		buf = append(buf, byte(s.kind), s.flags, 0, 0)
	}
	return os.WriteFile(path, buf, 0o644)
}

// fromBGWriter reports whether the calling goroutine is the buffer pool's
// background writer. It walks the stack, so only the device write path,
// the one call the writer makes into a decorated layer, pays for it.
func fromBGWriter() bool {
	var pcs [32]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, "(*BackgroundWriter)") {
			return true
		}
		if !more {
			return false
		}
	}
}

// tracedDevice times every page read and write of the device it wraps.
type tracedDevice struct {
	storage.Device
	t *tracer
}

func (d *tracedDevice) ReadPage(id page.PageID, p *page.Page) error {
	if !d.t.on.Load() {
		return d.Device.ReadPage(id, p)
	}
	start := d.t.now()
	err := d.Device.ReadPage(id, p)
	d.t.child(kindRead, id, start, 0, 0)
	return err
}

func (d *tracedDevice) WritePage(p *page.Page) error {
	if !d.t.on.Load() {
		return d.Device.WritePage(p)
	}
	start := d.t.now()
	err := d.Device.WritePage(p)
	var flags uint8
	if fromBGWriter() {
		flags = spanFromBGWriter
	}
	d.t.child(kindWrite, 0, start, 0, flags)
	return err
}

// Backing exposes the wrapped device, so the pool's probes for resilience
// layers (storage.FindBreaker and friends) see through the decorator.
func (d *tracedDevice) Backing() storage.Device { return d.Device }

// tracedPolicy times the mutating calls of the replacement policy it
// wraps; the constant-time queries (Name, Cap, Len, Contains) pass through
// untimed.
type tracedPolicy struct {
	replacer.Policy
	t *tracer
}

// tracePolicy decorates p. The result implements replacer.Prefetcher and
// replacer.LockFreeHit exactly when p does: the wrapper discovers both by
// type assertion, so dropping one would silently change the protocol under
// test (2Q without Prefetch turns batching-with-prefetching into plain
// batching).
func tracePolicy(p replacer.Policy, t *tracer) replacer.Policy {
	base := &tracedPolicy{Policy: p, t: t}
	pf, isPF := p.(replacer.Prefetcher)
	lf, isLF := p.(replacer.LockFreeHit)
	switch {
	case isPF && isLF:
		return &struct {
			*tracedPolicy
			tracedPrefetch
			replacer.LockFreeHit
		}{base, tracedPrefetch{pf, t}, lf}
	case isPF:
		return &struct {
			*tracedPolicy
			tracedPrefetch
		}{base, tracedPrefetch{pf, t}}
	case isLF:
		return &struct {
			*tracedPolicy
			replacer.LockFreeHit
		}{base, lf}
	}
	return base
}

func (p *tracedPolicy) Hit(id page.PageID) {
	if !p.t.on.Load() {
		p.Policy.Hit(id)
		return
	}
	start := p.t.now()
	p.Policy.Hit(id)
	p.t.child(kindHit, 0, start, 0, 0)
}

func (p *tracedPolicy) Admit(id page.PageID) (page.PageID, bool) {
	if !p.t.on.Load() {
		return p.Policy.Admit(id)
	}
	start := p.t.now()
	v, ok := p.Policy.Admit(id)
	p.t.child(kindAdmit, id, start, 0, 0)
	return v, ok
}

func (p *tracedPolicy) Evict() (page.PageID, bool) {
	if !p.t.on.Load() {
		return p.Policy.Evict()
	}
	start := p.t.now()
	v, ok := p.Policy.Evict()
	p.t.child(kindEvict, 0, start, 0, 0)
	return v, ok
}

func (p *tracedPolicy) Remove(id page.PageID) {
	if !p.t.on.Load() {
		p.Policy.Remove(id)
		return
	}
	start := p.t.now()
	p.Policy.Remove(id)
	p.t.child(kindRemove, 0, start, 0, 0)
}

// CheckInvariants forwards to the wrapped policy's checker, so the pool's
// invariant check covers the policy under the decorator too.
func (p *tracedPolicy) CheckInvariants() error { return replacer.Check(p.Policy) }

type tracedPrefetch struct {
	pf replacer.Prefetcher
	t  *tracer
}

func (p tracedPrefetch) Prefetch(ids []page.PageID) {
	if !p.t.on.Load() {
		p.pf.Prefetch(ids)
		return
	}
	start := p.t.now()
	p.pf.Prefetch(ids)
	p.t.child(kindPrefetch, 0, start, int32(len(ids)), 0)
}
