package buffer

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/sched"
	"bpwrapper/internal/storage"
)

func TestQuarCopyDoubleReleasePanics(t *testing.T) {
	var src page.Page
	src.Stamp(pid(1))
	c := newQuarCopy(&src)
	c.retain()
	c.release()
	c.release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release of a quarantine copy not detected")
		}
	}()
	c.release()
}

// parked returns the copy currently quarantined for id, if any.
func (sh *shard) parked(id page.PageID) *quarCopy {
	sh.quarMu.Lock()
	defer sh.quarMu.Unlock()
	return sh.quarantine[id]
}

// TestQuarantineCopyLifetime drives the recycling hazard deterministically.
// An evicting writer is parked at BufQuarantinePark with its copy c1 of
// page 1 (v1) in the quarantine. While it is parked, a miss adopts c1, the
// page is rewritten to v2 and evicted again, parking a new copy c2. The
// adopter's release must leave c1 alive for the parked writer, so c2 can
// never be c1 recycled; the parked writer must then see its entry gone and
// skip, leaving v2 on the device; and every copy must end unreferenced.
func TestQuarantineCopyLifetime(t *testing.T) {
	mem := storage.NewMemDevice()
	p := New(Config{Frames: 4, PolicyFactory: replacer.Factories()["lru"], Device: mem})
	sh := p.shardFor(pid(1))
	s := p.NewSession()
	dirtyPage(t, p, s, pid(1)) // v1
	for i := uint64(2); i <= 4; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}

	var v2 page.Page
	v2.Stamp(pid(1) + 2*stampShift)
	var (
		armed      atomic.Bool
		c1, c2     *quarCopy
		c1Refs     int32 // c1's references once adopted: the parked writer's
		c1AtPark2  int32 // c1's references when c2 was parked
		c1Intact   bool  // c1 still held v1 when c2 was parked
		helperDone = make(chan struct{})
		helperErr  error
	)
	helper := func() {
		defer close(helperDone)
		hs := p.NewSession()
		// Adopt c1: the miss takes the quarantine entry.
		ref, err := p.Get(hs, pid(1))
		if err != nil {
			helperErr = err
			return
		}
		var got page.Page
		copy(got.Data[:], ref.Data())
		ref.Release()
		if !got.VerifyStamp(pid(1) + stampShift) {
			helperErr = errors.New("adopting miss did not see v1")
			return
		}
		c1Refs = c1.refs.Load()
		// Rewrite to v2 and evict again, away from the parked writer's
		// own in-flight load.
		w, err := p.GetWrite(hs, pid(1))
		if err != nil {
			helperErr = err
			return
		}
		copy(w.Data(), v2.Data[:])
		w.MarkDirty()
		w.Release()
		for i := uint64(100); i < 104; i++ {
			r, err := p.Get(hs, pid(i))
			if err != nil {
				helperErr = err
				return
			}
			r.Release()
		}
		hs.Flush()
	}
	restore := sched.SetHook(func(pt sched.Point) {
		if pt != sched.BufQuarantinePark {
			return
		}
		if armed.CompareAndSwap(true, false) {
			// First park, on the test goroutine: the writer of c1.
			c1 = sh.parked(pid(1))
			go helper()
			select {
			case <-helperDone:
			case <-time.After(10 * time.Second):
				t.Fatal("helper stuck while the first writer was parked")
			}
			return
		}
		if c1 != nil && c2 == nil {
			// Second park, on the helper: the writer of c2.
			c2 = sh.parked(pid(1))
			c1AtPark2 = c1.refs.Load()
			c1Intact = c1.pg.VerifyStamp(pid(1) + stampShift)
		}
	})
	defer restore()

	armed.Store(true)
	ref, err := p.Get(s, pid(5)) // evicts page 1, the LRU page
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()
	<-helperDone
	if helperErr != nil {
		t.Fatal(helperErr)
	}
	if c1 == nil || c2 == nil {
		t.Fatalf("parks observed: c1=%p c2=%p, want both", c1, c2)
	}
	if c2 == c1 {
		t.Fatal("second eviction parked the first writer's copy: recycled while referenced")
	}
	if c1Refs != 1 || c1AtPark2 != 1 {
		t.Fatalf("c1 refs after adoption %d, at second park %d; want 1 (the parked writer's)", c1Refs, c1AtPark2)
	}
	if !c1Intact {
		t.Fatal("c1's bytes changed while its writer was parked")
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	var got page.Page
	if err := mem.ReadPage(pid(1), &got); err != nil {
		t.Fatal(err)
	}
	if got.Data != v2.Data {
		t.Fatal("device does not hold the newest bytes (v2) of page 1")
	}
	if n := p.QuarantineLen(); n != 0 {
		t.Fatalf("%d pages still quarantined", n)
	}
	if r1, r2 := c1.refs.Load(), c2.refs.Load(); r1 != 0 || r2 != 0 {
		t.Fatalf("copies still referenced at quiescence: c1 %d, c2 %d", r1, r2)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
