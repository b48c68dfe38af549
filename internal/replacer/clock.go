package replacer

import (
	"sync"
	"sync/atomic"
)

// clockNode is a ring element for CLOCK and GCLOCK. The reference state is
// atomic because the hit path runs without any lock, exactly like the
// reference-bit update in PostgreSQL's clock sweep. Everything else (ring
// links, residency) is mutated only under the policy lock.
type clockNode struct {
	prev, next *clockNode
	id         PageID
	ref        atomic.Int32 // 0/1 for CLOCK; 0..maxCount for GCLOCK
}

// touch is the prefetch walk (see prefetch.go): it reads the ring links and
// the reference state.
func (nd *clockNode) touch() uint64 {
	s := uint64(nd.id) ^ uint64(nd.ref.Load())
	if p := nd.prev; p != nil {
		s ^= uint64(p.id)
	}
	if n := nd.next; n != nil {
		s ^= uint64(n.id)
	}
	return s
}

// Clock is the second-chance (CLOCK) approximation of LRU used by
// PostgreSQL since 8.1: resident pages form a circular list; a hit sets the
// page's reference bit with a single atomic store and takes no lock; the
// eviction hand sweeps the ring, clearing set bits and evicting the first
// page found with a clear bit.
//
// Hit and Contains are safe for concurrent use without external locking
// (the table is a sync.Map written only on the serialized miss path). All
// other methods require the policy lock.
type Clock struct {
	capacity int
	maxCount int32    // reference ceiling; 1 for plain CLOCK
	name     string   // "clock" or "gclock"
	table    sync.Map // PageID → *clockNode; lock-free reads on the hit path
	hand     *clockNode
	length   int
}

var (
	_ Policy      = (*Clock)(nil)
	_ LockFreeHit = (*Clock)(nil)
	_ Prefetcher  = (*Clock)(nil)
)

// NewClock returns a plain CLOCK policy (single reference bit) holding at
// most capacity pages.
func NewClock(capacity int) *Clock {
	checkCap("clock", capacity)
	return &Clock{capacity: capacity, maxCount: 1, name: "clock"}
}

// NewGClock returns a generalized CLOCK policy whose per-page reference
// counter saturates at maxCount and is decremented by the sweeping hand,
// matching PostgreSQL's usage_count scheme (PostgreSQL uses maxCount 5).
func NewGClock(capacity int, maxCount int32) *Clock {
	checkCap("gclock", capacity)
	if maxCount < 1 {
		panic("replacer: gclock: maxCount must be >= 1")
	}
	return &Clock{capacity: capacity, maxCount: maxCount, name: "gclock"}
}

// Name implements Policy.
func (p *Clock) Name() string { return p.name }

// Cap implements Policy.
func (p *Clock) Cap() int { return p.capacity }

// Len implements Policy.
func (p *Clock) Len() int { return p.length }

// HitIsLockFree reports that Hit requires no external lock.
func (p *Clock) HitIsLockFree() bool { return true }

// Contains reports whether id is resident. Safe without the policy lock.
func (p *Clock) Contains(id PageID) bool {
	_, ok := p.table.Load(id)
	return ok
}

// Hit saturates the page's reference counter. It takes no lock: this is the
// scalability property that made PostgreSQL adopt the clock sweep, and the
// yardstick the paper measures BP-Wrapper against.
func (p *Clock) Hit(id PageID) {
	v, ok := p.table.Load(id)
	if !ok {
		return
	}
	nd := v.(*clockNode)
	// Saturating increment; a CAS loop keeps the counter within
	// [0, maxCount] under concurrency.
	for {
		c := nd.ref.Load()
		if c >= p.maxCount {
			return
		}
		if nd.ref.CompareAndSwap(c, c+1) {
			return
		}
	}
}

// Admit inserts a new page just behind the hand (so it receives a full
// sweep before being considered for eviction), evicting via the clock sweep
// if at capacity. Must be called with the policy lock held.
func (p *Clock) Admit(id PageID) (victim PageID, evicted bool) {
	mustAbsent(p.name, p.Contains(id))
	if p.length == p.capacity {
		victim = p.sweep()
		evicted = true
	}
	nd := &clockNode{id: id}
	if p.hand == nil {
		nd.prev, nd.next = nd, nd
		p.hand = nd
	} else {
		// Insert immediately behind the hand: the hand will visit every
		// other page before reaching the newcomer.
		at := p.hand.prev
		nd.prev, nd.next = at, p.hand
		at.next = nd
		p.hand.prev = nd
	}
	p.table.Store(id, nd)
	p.length++
	return victim, evicted
}

// sweep advances the hand, decrementing reference counters, until it finds
// a page with a zero counter; that page is unlinked and returned.
func (p *Clock) sweep() PageID {
	for {
		nd := p.hand
		if nd.ref.Load() > 0 {
			nd.ref.Add(-1)
			p.hand = nd.next
			continue
		}
		p.unlink(nd)
		return nd.id
	}
}

// unlink removes nd from the ring and the table. Caller holds the lock.
func (p *Clock) unlink(nd *clockNode) {
	if nd.next == nd {
		p.hand = nil
	} else {
		nd.prev.next = nd.next
		nd.next.prev = nd.prev
		if p.hand == nd {
			p.hand = nd.next
		}
	}
	nd.prev, nd.next = nil, nil
	p.table.Delete(nd.id)
	p.length--
}

// Evict removes and returns the page the clock sweep selects. Must be
// called with the policy lock held.
func (p *Clock) Evict() (PageID, bool) {
	if p.length == 0 {
		return 0, false
	}
	return p.sweep(), true
}

// Remove deletes a page from the resident set. Must be called with the
// policy lock held.
func (p *Clock) Remove(id PageID) {
	v, ok := p.table.Load(id)
	if !ok {
		return
	}
	p.unlink(v.(*clockNode))
}

// Prefetch walks the ring nodes for ids read-only; see Prefetcher. The
// clock policies' table is a sync.Map rather than an entryTable because
// their lock-free Hit must never miss a resident page; Prefetch reuses
// it.
func (p *Clock) Prefetch(ids []PageID) {
	if raceEnabled {
		return
	}
	var sink uint64
	for _, id := range ids {
		if v, ok := p.table.Load(id); ok {
			sink ^= v.(*clockNode).touch()
		}
	}
	prefetchSink = sink
}
