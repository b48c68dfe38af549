package replacer

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// checkAgainst verifies t against the oracle over every key in universe.
func checkAgainst(t *testing.T, tab *nodeTable, oracle map[PageID]*node, universe []PageID) {
	t.Helper()
	if err := tab.check(); err != nil {
		t.Fatal(err)
	}
	if tab.len() != len(oracle) {
		t.Fatalf("len %d, oracle %d", tab.len(), len(oracle))
	}
	for _, id := range universe {
		if got, want := tab.get(id), oracle[id]; got != want {
			t.Fatalf("get(%v) = %p, oracle %p", id, got, want)
		}
	}
}

// TestEntryTableMatchesMap drives random inserts, removes and gets
// against a map oracle, with a universe twice the bound so the table runs
// full and the free stack is reused in every order.
func TestEntryTableMatchesMap(t *testing.T) {
	for _, bound := range []int{1, 2, 3, 8, 33} {
		t.Run(fmt.Sprint(bound), func(t *testing.T) {
			var tab nodeTable
			tab.init("test", bound)
			r := rand.New(rand.NewSource(int64(bound)))
			universe := make([]PageID, 2*bound+1)
			for i := range universe {
				universe[i] = tid(uint64(r.Int63n(1 << 30)))
			}
			oracle := make(map[PageID]*node)
			for step := 0; step < 4000; step++ {
				id := universe[r.Intn(len(universe))]
				if _, ok := oracle[id]; ok {
					tab.remove(id)
					delete(oracle, id)
				} else if len(oracle) < bound {
					nd := tab.insert(id)
					*nd = node{id: id}
					oracle[id] = nd
				}
				checkAgainst(t, &tab, oracle, universe)
			}
		})
	}
}

// TestEntryTableWrappedClusters forces probe clusters that start at the
// last slots and wrap to slot 0, then removes keys from every position so
// backward shifts cross the wrap, checking reachability after each step.
func TestEntryTableWrappedClusters(t *testing.T) {
	const bound = 8 // 16 slots
	var tab nodeTable
	tab.init("test", bound)
	last := len(tab.slots) - 1
	// Keys homed at the last slot, the one before it, and slot 0, so
	// displaced keys of all three homes share one wrapped cluster.
	var keys []PageID
	want := map[int]int{last: 3, last - 1: 2, 0: 2, 1: 1}
	for n := uint64(0); len(keys) < bound; n++ {
		id := tid(n)
		if h := tab.home(uint64(id)); want[h] > 0 {
			want[h]--
			keys = append(keys, id)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		oracle := make(map[PageID]*node)
		for _, i := range r.Perm(len(keys)) {
			nd := tab.insert(keys[i])
			*nd = node{id: keys[i]}
			oracle[keys[i]] = nd
		}
		checkAgainst(t, &tab, oracle, keys)
		if tab.slots[0].val.Load() == nil {
			t.Fatal("cluster did not wrap past the last slot")
		}
		for _, i := range r.Perm(len(keys)) {
			tab.remove(keys[i])
			delete(oracle, keys[i])
			checkAgainst(t, &tab, oracle, keys)
		}
	}
}

// TestEntryTableExhaustionPanics: inserting past the bound is a policy
// bug and must say which policy and bound.
func TestEntryTableExhaustionPanics(t *testing.T) {
	var tab nodeTable
	tab.init("2q", 3)
	for i := uint64(0); i < 3; i++ {
		tab.insert(tid(i))
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "2q") || !strings.Contains(msg, "bound 3") {
			t.Fatalf("panic %q does not name the policy and bound", msg)
		}
	}()
	tab.insert(tid(3))
}

// slabPolicies are the policies whose metadata lives entirely in slabs.
// LIRS keeps container/list elements and the clock policies a sync.Map.
var slabPolicies = []string{"2q", "arc", "car", "clockpro", "fifo", "lfu", "lru", "lru2", "mq", "seq"}

// TestPolicyOpsZeroAlloc: once a slab policy is at capacity with its
// ghost history full, an Admit/Hit/Evict/Remove cycle allocates nothing.
func TestPolicyOpsZeroAlloc(t *testing.T) {
	const capacity = 64
	r := rand.New(rand.NewSource(1))
	trace := make([]PageID, 4096)
	for i := range trace {
		// Half to a hot set, half over 4× capacity: hits, cold misses and
		// ghost hits.
		if r.Intn(2) == 0 {
			trace[i] = tid(uint64(r.Intn(capacity / 2)))
		} else {
			trace[i] = tid(uint64(r.Intn(4 * capacity)))
		}
	}
	for _, name := range slabPolicies {
		t.Run(name, func(t *testing.T) {
			p, _ := New(name, capacity)
			i := 0
			step := func() {
				id := trace[i%len(trace)]
				i++
				if p.Contains(id) {
					p.Hit(id)
				} else {
					p.Admit(id)
				}
				switch i % 16 {
				case 5:
					p.Evict()
				case 11:
					p.Remove(trace[(i*7)%len(trace)])
				}
			}
			for range trace {
				step()
			}
			if p.Len() < capacity-1 {
				t.Fatalf("warm-up left %d of %d resident", p.Len(), capacity)
			}
			if a := testing.AllocsPerRun(2000, step); a != 0 {
				t.Fatalf("%s: %v allocs per op cycle, want 0", name, a)
			}
			if err := CheckDeep(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPrefetchConcurrentWithMutation runs lock-free Prefetch against a
// single writer (the policy lock's holder) that admits, hits, evicts and
// removes. Under -race it proves the table probe is race-clean; in every
// build it proves Prefetch neither faults nor hangs while slots shift
// under it.
func TestPrefetchConcurrentWithMutation(t *testing.T) {
	for _, name := range []string{"2q", "arc"} {
		t.Run(name, func(t *testing.T) {
			const capacity = 64
			p, _ := New(name, capacity)
			pf := p.(Prefetcher)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					ids := make([]PageID, 16)
					for {
						select {
						case <-stop:
							return
						default:
						}
						for i := range ids {
							ids[i] = tid(uint64(r.Intn(4 * capacity)))
						}
						pf.Prefetch(ids)
					}
				}(int64(g))
			}
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				id := tid(uint64(r.Intn(4 * capacity)))
				switch {
				case p.Contains(id):
					if i%3 == 0 {
						p.Remove(id)
					} else {
						p.Hit(id)
					}
				case i%5 == 0:
					p.Evict()
				default:
					p.Admit(id)
				}
			}
			close(stop)
			wg.Wait()
			if err := CheckDeep(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}
