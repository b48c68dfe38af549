package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/sched"
	"bpwrapper/internal/storage"
)

// TestMissTakesPolicyLockOnce: at capacity, a miss commits, picks its
// victim and admits the page in a single policy-lock hold, whether the
// victim is clean or dirty.
func TestMissTakesPolicyLockOnce(t *testing.T) {
	const frames, misses = 8, 64
	dev := storage.NewMemDevice()
	p := New(Config{Frames: frames, Shards: 1, PolicyFactory: replacer.Factories()["2q"], Device: dev})
	s := p.NewSession()
	for i := uint64(1); i <= frames; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	sh := p.cur.Load().shards[0]
	locks := sh.wrapper.Stats().Lock.Acquisitions
	writes := dev.Stats().Writes
	for i := uint64(0); i < misses; i++ {
		id := pid(frames + 1 + i)
		if i%2 == 0 {
			r, err := p.GetWrite(s, id)
			if err != nil {
				t.Fatal(err)
			}
			r.MarkDirty()
			r.Release()
			continue
		}
		r, err := p.Get(s, id)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	if got := sh.wrapper.Stats().Lock.Acquisitions - locks; got != misses {
		t.Fatalf("%d misses took the policy lock %d times, want once each", misses, got)
	}
	if w := dev.Stats().Writes - writes; w == 0 || w >= misses {
		t.Fatalf("%d write-backs in %d misses: want both clean and dirty victims", w, misses)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMissWalksPastLoadingPage parks one miss after its page was admitted
// but before its frame enters the table. Under LFU that fresh page is the
// coldest candidate, so a second miss's victim walk meets it first: it
// must refuse it as mid-load, keep it resident, and evict another page.
func TestMissWalksPastLoadingPage(t *testing.T) {
	p := New(Config{Frames: 4, Shards: 1, PolicyFactory: replacer.Factories()["lfu"], Device: storage.NewMemDevice()})
	s := p.NewSession()
	for round := 0; round < 3; round++ {
		for i := uint64(1); i <= 4; i++ {
			r, err := p.Get(s, pid(i))
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
	}
	sh := p.cur.Load().shards[0]

	var armed atomic.Bool
	parked := make(chan struct{})
	resume := make(chan struct{})
	var resumeOnce sync.Once
	release := func() { resumeOnce.Do(func() { close(resume) }) }
	defer release()
	restore := sched.SetHook(func(pt sched.Point) {
		if pt == sched.BufLoadInstall && armed.CompareAndSwap(true, false) {
			close(parked)
			<-resume
		}
	})
	defer restore()

	armed.Store(true)
	loaded := make(chan error, 1)
	go func() {
		r, err := p.Get(p.NewSession(), pid(5))
		if err == nil {
			r.Release()
		}
		loaded <- err
	}()
	<-parked
	var admitted bool
	sh.wrapper.Locked(func(pol replacer.Policy) { admitted = pol.Contains(pid(5)) })
	if !admitted {
		t.Fatal("the loading page is not policy-resident before its install")
	}

	midLoad := sh.reclaimRefusals[refusedMidLoad].Load()
	r, err := p.Get(s, pid(6))
	if err != nil {
		t.Fatalf("miss beside a loading page: %v", err)
	}
	r.Release()
	if sh.reclaimRefusals[refusedMidLoad].Load() == midLoad {
		t.Fatal("the victim walk never met the loading page")
	}
	sh.wrapper.Locked(func(pol replacer.Policy) { admitted = pol.Contains(pid(5)) })
	if !admitted {
		t.Fatal("the walk dropped the loading page from the policy")
	}

	release()
	if err := <-loaded; err != nil {
		t.Fatalf("parked load: %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedLoadLeavesPolicy: a device read error after the page was
// admitted takes the page back out of the policy and returns its frame to
// the free list, so policy residents and mapped frames still agree and the
// next miss succeeds.
func TestFailedLoadLeavesPolicy(t *testing.T) {
	const frames = 4
	dev := storage.NewFaultDevice(storage.NewMemDevice(), storage.FaultConfig{})
	p := New(Config{Frames: frames, Shards: 1, PolicyFactory: replacer.Factories()["2q"], Device: dev})
	s := p.NewSession()
	for i := uint64(1); i <= frames; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	sh := p.cur.Load().shards[0]

	dev.FailNextReads(1)
	if _, err := p.Get(s, pid(frames+1)); err == nil {
		t.Fatal("read failure not reported")
	}
	mapped := len(sh.residentIDs())
	var n int
	var admitted bool
	sh.wrapper.Locked(func(pol replacer.Policy) { n, admitted = pol.Len(), pol.Contains(pid(frames+1)) })
	if admitted || n != mapped {
		t.Fatalf("after the failed load: policy Len %d (failed page resident %v), %d frames mapped", n, admitted, mapped)
	}
	sh.freeMu.Lock()
	free := len(sh.freeList)
	sh.freeMu.Unlock()
	if free != frames-mapped || free == 0 {
		t.Fatalf("%d frames free, %d mapped of %d: the failed load's frame was not freed", free, mapped, frames)
	}

	r, err := p.Get(s, pid(frames+1))
	if err != nil {
		t.Fatalf("miss after a failed load: %v", err)
	}
	r.Release()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// gatedDevice blocks each read until the test sends, on the page's gate,
// the error the read returns.
type gatedDevice struct {
	storage.Device
	gates map[page.PageID]chan error
}

func (d *gatedDevice) ReadPage(id page.PageID, dst *page.Page) error {
	if err := <-d.gates[id]; err != nil {
		return err
	}
	return d.Device.ReadPage(id, dst)
}

// TestLoadOpFollowersGetTheirLoadsError fails consecutive loads of several
// pages at once, each load with its own error, while followers wait on
// every load. Load ops are recycled across pages, so a waiter answered by a
// recycled op would see another load's error (or none) instead of its own.
func TestLoadOpFollowersGetTheirLoadsError(t *testing.T) {
	const pages, followers, rounds = 4, 4, 25
	dev := &gatedDevice{Device: storage.NewMemDevice(), gates: make(map[page.PageID]chan error)}
	for i := uint64(1); i <= pages; i++ {
		dev.gates[pid(i)] = make(chan error)
	}
	p := New(Config{Frames: 2 * pages, Shards: 1, PolicyFactory: replacer.Factories()["lru"], Device: dev})
	sh := p.cur.Load().shards[0]

	// refs reports the reference count of id's registered load, 0 when none.
	refs := func(id page.PageID) int32 {
		b := sh.bucketFor(id)
		b.mu.Lock()
		defer b.mu.Unlock()
		if op := b.loads[id]; op != nil {
			return op.refs.Load()
		}
		return 0
	}
	waitRefs := func(id page.PageID, want int32) error {
		for deadline := time.Now().Add(10 * time.Second); refs(id) != want; time.Sleep(20 * time.Microsecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("page %v: load reference count %d, want %d", id, refs(id), want)
			}
		}
		return nil
	}
	drive := func(id page.PageID) error {
		for round := 0; round < rounds; round++ {
			roundErr := fmt.Errorf("read failure of page %v, round %d", id, round)
			errs := make(chan error, followers+1)
			get := func() {
				_, err := p.Get(p.NewSession(), id)
				errs <- err
			}
			go get()
			if err := waitRefs(id, 1); err != nil {
				return err
			}
			for i := 0; i < followers; i++ {
				go get()
			}
			if err := waitRefs(id, followers+1); err != nil {
				return err
			}
			dev.gates[id] <- roundErr
			for i := 0; i <= followers; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, roundErr) {
						return fmt.Errorf("round %d: a requester of %v got %v, want %v", round, id, err, roundErr)
					}
				case <-time.After(10 * time.Second):
					return fmt.Errorf("round %d: a requester of %v was never answered", round, id)
				}
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for i := uint64(1); i <= pages; i++ {
		wg.Add(1)
		go func(id page.PageID) {
			defer wg.Done()
			if err := drive(id); err != nil {
				t.Error(err)
			}
		}(pid(i))
	}
	wg.Wait()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
