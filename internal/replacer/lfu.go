package replacer

// LFU evicts the resident page with the smallest access frequency, breaking
// ties by least-recent arrival among pages of equal frequency. It is
// implemented with the standard frequency-bucket list structure (O(1) per
// operation): a chain of buckets in ascending frequency, each holding its
// pages in arrival order. Buckets come from a slab sized once, so no
// operation allocates.
type LFU struct {
	capacity int
	table    nodeTable
	buckets  []lfuBucket  // slab; a page's node.level indexes its bucket
	free     []*lfuBucket // unused buckets
	head     *lfuBucket   // lowest-frequency non-empty bucket, nil if empty
	length   int
}

// lfuBucket holds the pages of one frequency.
type lfuBucket struct {
	freq       int
	slot       int        // own index in LFU.buckets
	prev, next *lfuBucket // neighbours in ascending frequency
	pages      list       // front = newest
}

var _ Policy = (*LFU)(nil)
var _ Prefetcher = (*LFU)(nil)

// NewLFU returns an LFU policy holding at most capacity pages.
func NewLFU(capacity int) *LFU {
	checkCap("lfu", capacity)
	// Each non-empty bucket holds a page; a Hit briefly needs one more.
	p := &LFU{capacity: capacity, buckets: make([]lfuBucket, capacity+1)}
	p.free = make([]*lfuBucket, len(p.buckets))
	for i := range p.buckets {
		b := &p.buckets[i]
		b.slot = i
		b.pages.root.prev, b.pages.root.next = &b.pages.root, &b.pages.root
		p.free[len(p.free)-1-i] = b
	}
	p.table.init("lfu", capacity)
	return p
}

// Name implements Policy.
func (p *LFU) Name() string { return "lfu" }

// Cap implements Policy.
func (p *LFU) Cap() int { return p.capacity }

// Len implements Policy.
func (p *LFU) Len() int { return p.length }

// Contains implements Policy.
func (p *LFU) Contains(id PageID) bool { return p.table.get(id) != nil }

// bucketAfter returns the bucket for freq, which must follow prev (nil:
// the chain's head) in the chain, linking a fresh one if needed.
func (p *LFU) bucketAfter(prev *lfuBucket, freq int) *lfuBucket {
	next := p.head
	if prev != nil {
		next = prev.next
	}
	if next != nil && next.freq == freq {
		return next
	}
	b := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	b.freq, b.prev, b.next = freq, prev, next
	if prev != nil {
		prev.next = b
	} else {
		p.head = b
	}
	if next != nil {
		next.prev = b
	}
	return b
}

// release unlinks b from the chain if it has become empty.
func (p *LFU) release(b *lfuBucket) {
	if b.pages.len() > 0 {
		return
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		p.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev, b.next = nil, nil
	p.free = append(p.free, b)
}

// Hit increments the page's frequency, moving it to the next bucket.
func (p *LFU) Hit(id PageID) {
	nd := p.table.get(id)
	if nd == nil {
		return
	}
	old := &p.buckets[nd.level]
	b := p.bucketAfter(old, nd.count+1)
	old.pages.remove(nd)
	p.release(old)
	nd.count++
	nd.level = b.slot
	b.pages.pushFront(nd)
}

// Admit inserts a new page with frequency 1, evicting the least-frequently-
// used page (oldest within the lowest-frequency bucket) if at capacity.
func (p *LFU) Admit(id PageID) (victim PageID, evicted bool) {
	mustAbsent("lfu", p.Contains(id))
	if p.length == p.capacity {
		victim, evicted = p.Evict()
	}
	b := p.bucketAfter(nil, 1)
	nd := p.table.insert(id)
	*nd = node{id: id, count: 1, level: b.slot}
	b.pages.pushFront(nd)
	p.length++
	return victim, evicted
}

// Evict removes and returns the least-frequently-used page (oldest within
// the lowest-frequency bucket).
func (p *LFU) Evict() (PageID, bool) {
	if p.length == 0 {
		return 0, false
	}
	b := p.head
	nd := b.pages.popBack()
	p.release(b)
	p.table.remove(nd.id)
	p.length--
	return nd.id, true
}

// Remove deletes a page from the resident set.
func (p *LFU) Remove(id PageID) {
	nd := p.table.get(id)
	if nd == nil {
		return
	}
	b := &p.buckets[nd.level]
	b.pages.remove(nd)
	p.release(b)
	p.table.remove(id)
	p.length--
}

// Prefetch implements Prefetcher over the page table.
func (p *LFU) Prefetch(ids []PageID) { p.table.prefetch(ids) }
