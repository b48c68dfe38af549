package replacer

import (
	"fmt"
	"sync/atomic"
)

// entry is the constraint on a policy's per-page metadata type E: *E must
// offer the read-only field walk Prefetch performs (see prefetch.go).
type entry[E any] interface {
	*E
	touch() uint64
}

// entryTable is a policy's page table: a fixed-capacity map PageID → *E
// whose entries come from a slab allocated once by the constructor, so
// Admit, Hit, Evict and Remove never allocate.
//
// The index is open addressing with linear probing over a power-of-two
// slot array at least twice the slab size (load ≤ 1/2, so every probe
// meets an empty slot), with backward-shift deletion (no tombstones).
// Each slot interleaves the key with the entry pointer so a probe reads
// one cache line per step without dereferencing entries.
//
// Writers (insert, remove) must hold the policy lock. Slot fields are
// atomics so that get — also used by the lock-free Prefetch — may run
// concurrently with writers: it can miss a key that a backward shift is
// moving, or pair a key with the entry that slot held a moment earlier,
// but every pointer it returns is slab memory, so the worst outcome is
// warming the wrong cache line.
type entryTable[E any, P entry[E]] struct {
	slots []tableSlot[E]
	shift uint   // 64 - log2(len(slots)): home() keeps the hash's top bits
	slab  []E    // the entries; never reallocated
	free  []*E   // unused slab entries, a stack with capacity len(slab)
	name  string // policy name for the exhaustion panic
}

type tableSlot[E any] struct {
	key atomic.Uint64 // PageID; meaningful only while val != nil
	val atomic.Pointer[E]
}

// init sizes the table for at most bound simultaneous entries. bound must
// be a true maximum of the policy's resident plus history entries:
// inserting past it panics.
func (t *entryTable[E, P]) init(name string, bound int) {
	n, bits := 2, uint(1)
	for n < 2*bound {
		n <<= 1
		bits++
	}
	t.slots = make([]tableSlot[E], n)
	t.shift = 64 - bits
	t.slab = make([]E, bound)
	t.free = make([]*E, bound)
	for i := range t.slab {
		t.free[bound-1-i] = &t.slab[i] // pop order follows slab order
	}
	t.name = name
}

// home is the first slot probed for id (Fibonacci hashing).
func (t *entryTable[E, P]) home(id uint64) int {
	return int((id * 0x9E3779B97F4A7C15) >> t.shift)
}

func (t *entryTable[E, P]) len() int { return len(t.slab) - len(t.free) }

// get returns id's entry, or nil. Writers call it holding the policy
// lock; Prefetch calls it without, when it can miss a key or return the
// wrong entry (see entryTable). The probe is bounded by the slot count so
// that a run of concurrent shifts cannot keep an unlocked caller spinning.
func (t *entryTable[E, P]) get(id PageID) *E {
	mask := len(t.slots) - 1
	i := t.home(uint64(id))
	for range t.slots {
		s := &t.slots[i]
		e := s.val.Load()
		if e == nil {
			return nil
		}
		if s.key.Load() == uint64(id) {
			return e
		}
		i = (i + 1) & mask
	}
	return nil
}

// insert maps id to a free slab entry and returns it; the entry keeps
// whatever its previous occupant left, so the caller initialises it. id
// must be absent. Callers must hold the policy lock.
func (t *entryTable[E, P]) insert(id PageID) *E {
	n := len(t.free)
	if n == 0 {
		panic(fmt.Sprintf("replacer: %s: entry slab exhausted at bound %d", t.name, len(t.slab)))
	}
	e := t.free[n-1]
	t.free = t.free[:n-1]
	mask := len(t.slots) - 1
	i := t.home(uint64(id))
	for t.slots[i].val.Load() != nil {
		i = (i + 1) & mask
	}
	// Key before pointer: a lookup that sees the pointer sees its key.
	t.slots[i].key.Store(uint64(id))
	t.slots[i].val.Store(e)
	return e
}

// remove unmaps id and returns its entry to the slab; absent ids are
// ignored. Callers must hold the policy lock.
func (t *entryTable[E, P]) remove(id PageID) {
	mask := len(t.slots) - 1
	i := t.home(uint64(id))
	for {
		e := t.slots[i].val.Load()
		if e == nil {
			return
		}
		if t.slots[i].key.Load() == uint64(id) {
			t.free = append(t.free, e)
			break
		}
		i = (i + 1) & mask
	}
	// Backward shift: slot i is a hole. Pull into it the next entry of the
	// cluster whose home does not lie cyclically in (i, j], so every key
	// stays reachable from its home without crossing an empty slot.
	for j := i; ; {
		j = (j + 1) & mask
		e := t.slots[j].val.Load()
		if e == nil {
			t.slots[i].val.Store(nil)
			return
		}
		key := t.slots[j].key.Load()
		if cyclicIn(t.home(key), i, j) {
			continue
		}
		t.slots[i].key.Store(key)
		t.slots[i].val.Store(e)
		i = j
	}
}

// cyclicIn reports whether slot h lies in the cyclic interval (i, j].
func cyclicIn(h, i, j int) bool {
	if i <= j {
		return i < h && h <= j
	}
	return i < h || h <= j
}

// each calls fn for every mapped entry, in slot order, stopping at the
// first error. fn must not insert or remove. Callers must hold the policy
// lock.
func (t *entryTable[E, P]) each(fn func(id PageID, e *E) error) error {
	for i := range t.slots {
		if e := t.slots[i].val.Load(); e != nil {
			if err := fn(PageID(t.slots[i].key.Load()), e); err != nil {
				return err
			}
		}
	}
	return nil
}

// check verifies the index: every key is reachable from its home slot,
// appears once, and maps to a distinct slab entry; the mapped count plus
// the free stack account for the whole slab.
func (t *entryTable[E, P]) check() error {
	mask := len(t.slots) - 1
	mapped := 0
	seen := make(map[*E]bool, t.len())
	for i := range t.slots {
		e := t.slots[i].val.Load()
		if e == nil {
			continue
		}
		mapped++
		key := PageID(t.slots[i].key.Load())
		if seen[e] {
			return fmt.Errorf("replacer: %s: table maps two keys to the entry of %v", t.name, key)
		}
		seen[e] = true
		for j := t.home(uint64(key)); j != i; j = (j + 1) & mask {
			if t.slots[j].val.Load() == nil {
				return fmt.Errorf("replacer: %s: table key %v unreachable from its home slot", t.name, key)
			}
		}
	}
	if mapped != t.len() {
		return fmt.Errorf("replacer: %s: table maps %d keys, slab has %d in use", t.name, mapped, t.len())
	}
	return nil
}
