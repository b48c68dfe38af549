package replacer

// LRUK implements the LRU-K replacement algorithm (O'Neil, O'Neil &
// Weikum, SIGMOD 1993) for K=2 by default. 2Q — the BP-Wrapper paper's
// headline policy — was introduced as "a low overhead, high performance"
// alternative to exactly this algorithm, so having the original here lets
// the hit-ratio studies show what 2Q approximates.
//
// LRU-K evicts the resident page whose K-th most recent reference is
// oldest (backward K-distance), treating pages with fewer than K
// references as having infinite distance (evicted first, LRU among
// themselves). The Correlated Reference Period of the original paper is
// set to zero: in a DBMS buffer the upper layers have already collapsed
// intra-transaction re-references, as the paper's own deployment notes.
//
// The victim search uses a lazy min-heap keyed by the K-th reference time:
// stale heap entries (for pages re-referenced or evicted since the entry
// was pushed) are skipped on pop, keeping Hit at O(log n) amortized. The
// heap's backing array is sized for its compaction threshold up front, and
// entries carry their history in slab-owned arrays, so no operation
// allocates.
type LRUK struct {
	capacity int
	k        int
	clock    int64

	table entryTable[lrukEntry, *lrukEntry]
	heap  lrukHeap
}

// lrukEntry is the per-page reference history: a circular buffer of the
// last K reference times.
type lrukEntry struct {
	id      PageID
	hist    []int64 // hist[i]: i-th most recent is maintained via rotation
	n       int     // references recorded (capped at k)
	version uint64  // bumped on every update and on removal; never reset
}

// touch is the prefetch walk (see prefetch.go).
func (e *lrukEntry) touch() uint64 {
	s := uint64(e.id) ^ uint64(e.n) ^ e.version
	for _, h := range e.hist {
		s ^= uint64(h)
	}
	return s
}

// kDistanceKey returns the eviction key: the K-th most recent reference
// time, or a value that sorts before every real time when the page has
// fewer than K references (infinite backward distance). Ties among
// <K-reference pages break by their most recent reference (LRU).
func (e *lrukEntry) kDistanceKey(k int) (int64, int64) {
	if e.n < k {
		return -1, e.hist[0] // infinite distance; LRU tie-break
	}
	return e.hist[k-1], e.hist[0]
}

// lrukItem is a heap entry snapshot.
type lrukItem struct {
	entry   *lrukEntry
	version uint64
	kth     int64
	recent  int64
}

// lrukHeap is a binary min-heap of snapshots ordered by (kth, recent). Its
// sift-up and sift-down follow container/heap step for step, without
// boxing items into interface values.
type lrukHeap []lrukItem

func (h lrukHeap) less(i, j int) bool {
	if h[i].kth != h[j].kth {
		return h[i].kth < h[j].kth
	}
	return h[i].recent < h[j].recent
}

func (h *lrukHeap) push(it lrukItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *lrukHeap) pop() lrukItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	it := s[n]
	*h = s[:n]
	return it
}

// init establishes the heap order over the whole slice.
func (h lrukHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h lrukHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h lrukHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

var (
	_ Policy     = (*LRUK)(nil)
	_ Prefetcher = (*LRUK)(nil)
)

// NewLRU2 returns an LRU-2 policy, the classic configuration.
func NewLRU2(capacity int) *LRUK { return NewLRUK(capacity, 2) }

// NewLRUK returns an LRU-K policy with explicit K >= 1 (K=1 degenerates to
// plain LRU).
func NewLRUK(capacity, k int) *LRUK {
	checkCap("lru2", capacity)
	if k < 1 {
		panic("replacer: lruk: k must be >= 1")
	}
	p := &LRUK{capacity: capacity, k: k, heap: make(lrukHeap, 0, 8*capacity+1)}
	p.table.init("lru2", capacity)
	hist := make([]int64, capacity*k)
	for i := range p.table.slab {
		p.table.slab[i].hist = hist[i*k : (i+1)*k : (i+1)*k]
	}
	return p
}

// Name implements Policy.
func (p *LRUK) Name() string { return "lru2" }

// Cap implements Policy.
func (p *LRUK) Cap() int { return p.capacity }

// Len implements Policy.
func (p *LRUK) Len() int { return p.table.len() }

// Contains implements Policy.
func (p *LRUK) Contains(id PageID) bool { return p.table.get(id) != nil }

// record registers a reference: rotate the history and repush the heap
// snapshot.
func (p *LRUK) record(e *lrukEntry) {
	p.clock++
	// Shift history: newest at [0].
	copy(e.hist[1:], e.hist[:len(e.hist)-1])
	e.hist[0] = p.clock
	if e.n < p.k {
		e.n++
	}
	e.version++
	kth, recent := e.kDistanceKey(p.k)
	p.heap.push(lrukItem{entry: e, version: e.version, kth: kth, recent: recent})
	if len(p.heap) > 8*p.capacity {
		p.compact()
	}
}

// compact rebuilds the heap from the live entries, discarding stale
// snapshots; amortized O(1) per operation by the 8× growth trigger.
func (p *LRUK) compact() {
	p.heap = p.heap[:0]
	p.table.each(func(_ PageID, e *lrukEntry) error {
		kth, recent := e.kDistanceKey(p.k)
		p.heap = append(p.heap, lrukItem{entry: e, version: e.version, kth: kth, recent: recent})
		return nil
	})
	p.heap.init()
}

// Hit implements Policy.
func (p *LRUK) Hit(id PageID) {
	if e := p.table.get(id); e != nil {
		p.record(e)
	}
}

// Admit implements Policy.
func (p *LRUK) Admit(id PageID) (victim PageID, evicted bool) {
	mustAbsent("lru2", p.Contains(id))
	if p.table.len() == p.capacity {
		victim, evicted = p.Evict()
	}
	e := p.table.insert(id)
	e.id, e.n = id, 0
	clear(e.hist)
	p.record(e)
	return victim, evicted
}

// Evict implements Policy: pop heap items until one matches a live,
// current entry; that page has the maximal backward K-distance. An item is
// current iff its version is its entry's: versions only grow, across
// removal and reuse of the slab entry alike.
func (p *LRUK) Evict() (PageID, bool) {
	for len(p.heap) > 0 {
		it := p.heap.pop()
		if e := it.entry; e.version == it.version {
			p.drop(e)
			return e.id, true
		}
	}
	return 0, false
}

// Remove implements Policy. The heap entries become stale and are skipped
// lazily.
func (p *LRUK) Remove(id PageID) {
	if e := p.table.get(id); e != nil {
		p.drop(e)
	}
}

// drop unmaps e, invalidating its heap snapshots.
func (p *LRUK) drop(e *lrukEntry) {
	e.version++
	p.table.remove(e.id)
}

// Prefetch implements Prefetcher over the page table.
func (p *LRUK) Prefetch(ids []PageID) { p.table.prefetch(ids) }
