package replacer

// BP-Wrapper's prefetching technique (Section III-B) reads the replacement
// algorithm's metadata for a batch of pages *without holding the lock*, so
// the commit that follows finds those lines in the processor cache. On
// hardware the racy read is safe because it only warms the cache and
// coherence invalidates stale lines.
//
// In Go the lookup half of that read must still be memory-safe. Each
// prefetch-capable policy keeps its pages in an entryTable whose slots are
// atomics over a never-reallocated slab, so the policy's own table is the
// lock-free index: Prefetch probes it directly, concurrently with admits and
// evictions, and any entry it reaches is valid memory even when the probe
// raced with a move. There is no side index to maintain on the miss path.
// (CLOCK and GCLOCK are the exception: their lock-free Hit needs a lookup
// that never misses a resident page, so they keep a sync.Map; see clock.go.)
//
// The entry *field* reads in the walk are intentionally unsynchronized —
// that racy read is the prefetch. The values are never used for decisions,
// only summed into a sink to defeat dead-code elimination. Under the race
// detector the field walk is skipped (see race_on.go) while the atomic
// probe still runs, so instrumented test runs stay clean and still exercise
// the lock-free lookup.

// prefetch walks the metadata for ids read-only, loading the entry fields
// a subsequent commit would touch (list links and per-page flags). It is
// safe to call without the policy lock; missing or stale entries are
// harmless.
func (t *entryTable[E, P]) prefetch(ids []PageID) {
	var sink uint64
	for _, id := range ids {
		if e := t.get(id); e != nil && !raceEnabled {
			sink ^= P(e).touch()
		}
	}
	if !raceEnabled {
		prefetchSink = sink
	}
}

// prefetchSink receives the xor of all prefetched fields so the compiler
// cannot eliminate the reads. It carries no meaning.
var prefetchSink uint64

// touch is the prefetch walk for the shared node type: it reads the fields
// a commit would access — the page's own metadata and the neighbouring link
// pointers ("the forward and/or backward pointers involved in the movement
// of accessed pages", Section III-B).
func (nd *node) touch() uint64 {
	s := uint64(nd.id) ^ uint64(nd.count) ^ uint64(nd.level) ^ uint64(nd.tick)
	if nd.ref {
		s ^= 1
	}
	if nd.hot {
		s ^= 2
	}
	if nd.ghost {
		s ^= 4
	}
	if p := nd.prev; p != nil {
		s ^= uint64(p.id)
	}
	if n := nd.next; n != nil {
		s ^= uint64(n.id)
	}
	return s
}
