package replacer

import "fmt"

// This file gives every policy a CheckInvariants method: the cheap O(1)
// structural identities each algorithm promises (count bookkeeping, list
// length identities, adaptation targets within range) plus deep O(n) walks
// (link integrity, flag consistency, table/list agreement) that are only
// enabled in builds with the `torture` tag — see torture_on.go — or when
// forced via CheckDeep. The torture harness calls these between operations
// and at quiescent points, so the checks must never mutate policy state.

// Checker is implemented by policies that can verify their own structural
// invariants. CheckInvariants must be called with the same serialization
// its other methods require (the policy lock) and must not mutate state.
type Checker interface {
	CheckInvariants() error
}

// Check runs p's invariant checker if it implements one (all policies in
// this package do). Callers must hold the policy lock.
func Check(p Policy) error {
	if c, ok := p.(Checker); ok {
		return c.CheckInvariants()
	}
	return nil
}

// deepChecker is the unexported two-level hook behind Checker.
type deepChecker interface {
	checkInvariants(deep bool) error
}

// CheckDeep runs p's invariant checker with the deep O(n) walks forced on,
// regardless of build tags. Callers must hold the policy lock.
func CheckDeep(p Policy) error {
	if c, ok := p.(deepChecker); ok {
		return c.checkInvariants(true)
	}
	return Check(p)
}

// walkList verifies a list's link integrity and node flags, returning the
// walked length. fn (optional) is applied to every node. The walk is
// bounded by the recorded length so a cyclic corruption cannot hang it.
func walkList(policy, name string, l *list, fn func(*node) error) (int, error) {
	n := 0
	for nd := l.root.next; nd != &l.root; nd = nd.next {
		if nd.next.prev != nd || nd.prev.next != nd {
			return n, fmt.Errorf("replacer: %s: %s: broken links at %v", policy, name, nd.id)
		}
		n++
		if n > l.n {
			return n, fmt.Errorf("replacer: %s: %s: walk exceeds recorded length %d", policy, name, l.n)
		}
		if fn != nil {
			if err := fn(nd); err != nil {
				return n, err
			}
		}
	}
	if n != l.n {
		return n, fmt.Errorf("replacer: %s: %s: walked %d nodes, recorded length %d", policy, name, n, l.n)
	}
	return n, nil
}

// inTable checks that a walked node is the table's entry for its id.
func inTable(policy, name string, table *nodeTable, nd *node) error {
	if table.get(nd.id) != nd {
		return fmt.Errorf("replacer: %s: %s node %v not backed by table entry", policy, name, nd.id)
	}
	return nil
}

// ---- LRU ----

func (p *LRU) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *LRU) checkInvariants(deep bool) error {
	if p.lst.len() != p.table.len() {
		return fmt.Errorf("replacer: lru: list %d != table %d", p.lst.len(), p.table.len())
	}
	if p.Len() > p.capacity {
		return fmt.Errorf("replacer: lru: Len %d > cap %d", p.Len(), p.capacity)
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	_, err := walkList("lru", "list", p.lst, func(nd *node) error {
		return inTable("lru", "list", &p.table, nd)
	})
	return err
}

// ---- FIFO ----

func (p *FIFO) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *FIFO) checkInvariants(deep bool) error {
	if p.lst.len() != p.table.len() {
		return fmt.Errorf("replacer: fifo: list %d != table %d", p.lst.len(), p.table.len())
	}
	if p.Len() > p.capacity {
		return fmt.Errorf("replacer: fifo: Len %d > cap %d", p.Len(), p.capacity)
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	_, err := walkList("fifo", "list", p.lst, func(nd *node) error {
		return inTable("fifo", "list", &p.table, nd)
	})
	return err
}

// ---- LFU ----

func (p *LFU) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *LFU) checkInvariants(deep bool) error {
	if p.length != p.table.len() {
		return fmt.Errorf("replacer: lfu: length %d != table %d", p.length, p.table.len())
	}
	if p.length > p.capacity {
		return fmt.Errorf("replacer: lfu: length %d > cap %d", p.length, p.capacity)
	}
	sum, chained := 0, 0
	for b := p.head; b != nil; b = b.next {
		if b.pages.len() == 0 {
			return fmt.Errorf("replacer: lfu: empty bucket retained at freq %d", b.freq)
		}
		if b.next != nil && (b.next.freq <= b.freq || b.next.prev != b) {
			return fmt.Errorf("replacer: lfu: bucket chain broken after freq %d", b.freq)
		}
		sum += b.pages.len()
		if chained++; chained > p.length {
			return fmt.Errorf("replacer: lfu: bucket chain longer than length %d", p.length)
		}
	}
	if sum != p.length {
		return fmt.Errorf("replacer: lfu: bucket sum %d != length %d", sum, p.length)
	}
	if chained+len(p.free) != len(p.buckets) {
		return fmt.Errorf("replacer: lfu: %d chained + %d free buckets != slab %d", chained, len(p.free), len(p.buckets))
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	for b := p.head; b != nil; b = b.next {
		_, err := walkList("lfu", fmt.Sprintf("bucket[%d]", b.freq), &b.pages, func(nd *node) error {
			if nd.count != b.freq || nd.level != b.slot {
				return fmt.Errorf("replacer: lfu: node %v (freq %d, bucket slot %d) in bucket %d at slot %d",
					nd.id, nd.count, nd.level, b.freq, b.slot)
			}
			return inTable("lfu", "bucket", &p.table, nd)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- LRU-K ----

func (p *LRUK) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *LRUK) checkInvariants(deep bool) error {
	if p.Len() > p.capacity {
		return fmt.Errorf("replacer: %s: Len %d > cap %d", p.Name(), p.Len(), p.capacity)
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	return p.table.each(func(id PageID, e *lrukEntry) error {
		if e.id != id {
			return fmt.Errorf("replacer: %s: table[%v] holds entry for %v", p.Name(), id, e.id)
		}
		if len(e.hist) != p.k {
			return fmt.Errorf("replacer: %s: entry %v history length %d != k %d", p.Name(), id, len(e.hist), p.k)
		}
		if e.n < 1 || e.n > p.k {
			return fmt.Errorf("replacer: %s: entry %v has %d recorded references, want [1, %d]", p.Name(), id, e.n, p.k)
		}
		return nil
	})
}

// ---- 2Q ----

func (p *TwoQ) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *TwoQ) checkInvariants(deep bool) error {
	if p.Len() > p.capacity {
		return fmt.Errorf("replacer: 2q: Len %d > cap %d", p.Len(), p.capacity)
	}
	if got, want := p.table.len(), p.a1in.len()+p.am.len()+p.a1out.len(); got != want {
		return fmt.Errorf("replacer: 2q: table %d != a1in+am+a1out %d", got, want)
	}
	if p.a1out.len() > p.kout {
		return fmt.Errorf("replacer: 2q: a1out %d > kout %d", p.a1out.len(), p.kout)
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	checks := []struct {
		name  string
		l     *list
		ghost bool
		hot   bool
	}{
		{"a1in", p.a1in, false, false},
		{"am", p.am, false, true},
		{"a1out", p.a1out, true, false},
	}
	for _, c := range checks {
		_, err := walkList("2q", c.name, c.l, func(nd *node) error {
			if nd.ghost != c.ghost || nd.hot != c.hot {
				return fmt.Errorf("replacer: 2q: %s node %v has ghost=%v hot=%v", c.name, nd.id, nd.ghost, nd.hot)
			}
			return inTable("2q", c.name, &p.table, nd)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- LIRS ----

func (p *LIRS) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *LIRS) checkInvariants(deep bool) error {
	if p.nResident > p.capacity {
		return fmt.Errorf("replacer: lirs: resident %d > cap %d", p.nResident, p.capacity)
	}
	if p.nLIR > p.llirs {
		return fmt.Errorf("replacer: lirs: LIR count %d > target %d", p.nLIR, p.llirs)
	}
	if got, want := p.q.Len(), p.nResident-p.nLIR; got != want {
		return fmt.Errorf("replacer: lirs: Q holds %d, want resident-LIR = %d", got, want)
	}
	if p.ghostAge.Len() > p.ghostCap {
		return fmt.Errorf("replacer: lirs: %d ghosts > cap %d", p.ghostAge.Len(), p.ghostCap)
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	var lir, hir, ghost int
	err := p.table.each(func(id PageID, e *lirsEntry) error {
		if e.id != id {
			return fmt.Errorf("replacer: lirs: table[%v] holds entry for %v", id, e.id)
		}
		switch e.state {
		case lirsLIR:
			lir++
			if e.sElem == nil {
				return fmt.Errorf("replacer: lirs: LIR page %v off the recency stack", id)
			}
			if e.qElem != nil {
				return fmt.Errorf("replacer: lirs: LIR page %v on the HIR queue", id)
			}
		case lirsHIR:
			hir++
			if e.qElem == nil {
				return fmt.Errorf("replacer: lirs: resident HIR page %v off the queue", id)
			}
		case lirsHIRGhost:
			ghost++
			if e.gElem == nil {
				return fmt.Errorf("replacer: lirs: ghost %v off the age FIFO", id)
			}
			if e.qElem != nil {
				return fmt.Errorf("replacer: lirs: ghost %v on the resident queue", id)
			}
		default:
			return fmt.Errorf("replacer: lirs: entry %v has impossible state %d", id, e.state)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if lir != p.nLIR {
		return fmt.Errorf("replacer: lirs: counted %d LIR pages, recorded %d", lir, p.nLIR)
	}
	if lir+hir != p.nResident {
		return fmt.Errorf("replacer: lirs: counted %d residents, recorded %d", lir+hir, p.nResident)
	}
	if ghost != p.ghostAge.Len() {
		return fmt.Errorf("replacer: lirs: counted %d ghosts, age FIFO holds %d", ghost, p.ghostAge.Len())
	}
	return nil
}

// ---- SEQ ----

func (p *SEQ) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *SEQ) checkInvariants(deep bool) error {
	if p.Len() > p.capacity {
		return fmt.Errorf("replacer: seq: Len %d > cap %d", p.Len(), p.capacity)
	}
	if got, want := p.table.len(), p.main.len()+p.scan.len(); got != want {
		return fmt.Errorf("replacer: seq: table %d != main+scan %d", got, want)
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	for _, lc := range []struct {
		name string
		l    *list
	}{{"main", p.main}, {"scan", p.scan}} {
		_, err := walkList("seq", lc.name, lc.l, func(nd *node) error {
			return inTable("seq", lc.name, &p.table, nd)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- ARC / CAR ----

// checkARCShape verifies the list-length identities ARC and CAR share: the
// directory invariants of the ARC paper (|T1|+|T2| ≤ c, |T1|+|B1| ≤ c,
// total ≤ 2c) plus the adaptation target's range.
func checkARCShape(name string, capacity, target int, table *nodeTable, t1, t2, b1, b2 *list) error {
	if t1.len()+t2.len() > capacity {
		return fmt.Errorf("replacer: %s: T1+T2 = %d > cap %d", name, t1.len()+t2.len(), capacity)
	}
	if t1.len()+b1.len() > capacity {
		return fmt.Errorf("replacer: %s: T1+B1 = %d > cap %d", name, t1.len()+b1.len(), capacity)
	}
	total := t1.len() + t2.len() + b1.len() + b2.len()
	if total > 2*capacity {
		return fmt.Errorf("replacer: %s: directory %d > 2×cap %d", name, total, 2*capacity)
	}
	if table.len() != total {
		return fmt.Errorf("replacer: %s: table %d != directory %d", name, table.len(), total)
	}
	if target < 0 || target > capacity {
		return fmt.Errorf("replacer: %s: target p=%d outside [0, %d]", name, target, capacity)
	}
	return nil
}

// checkARCFlags deep-walks the four lists verifying the ghost/hot flag
// pattern both ARC and CAR maintain: T1 fresh, T2 proven, B1/B2 their
// ghosts.
func checkARCFlags(name string, table *nodeTable, t1, t2, b1, b2 *list) error {
	if err := table.check(); err != nil {
		return err
	}
	checks := []struct {
		lname string
		l     *list
		ghost bool
		hot   bool
	}{
		{"t1", t1, false, false},
		{"t2", t2, false, true},
		{"b1", b1, true, false},
		{"b2", b2, true, true},
	}
	for _, c := range checks {
		_, err := walkList(name, c.lname, c.l, func(nd *node) error {
			if nd.ghost != c.ghost || nd.hot != c.hot {
				return fmt.Errorf("replacer: %s: %s node %v has ghost=%v hot=%v", name, c.lname, nd.id, nd.ghost, nd.hot)
			}
			return inTable(name, c.lname, table, nd)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *ARC) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *ARC) checkInvariants(deep bool) error {
	if err := checkARCShape("arc", p.capacity, p.p, &p.table, p.t1, p.t2, p.b1, p.b2); err != nil {
		return err
	}
	if !deep {
		return nil
	}
	return checkARCFlags("arc", &p.table, p.t1, p.t2, p.b1, p.b2)
}

func (p *CAR) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *CAR) checkInvariants(deep bool) error {
	if err := checkARCShape("car", p.capacity, p.p, &p.table, p.t1, p.t2, p.b1, p.b2); err != nil {
		return err
	}
	if !deep {
		return nil
	}
	return checkARCFlags("car", &p.table, p.t1, p.t2, p.b1, p.b2)
}

// ---- CLOCK / GCLOCK ----

func (p *Clock) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *Clock) checkInvariants(deep bool) error {
	if p.length > p.capacity {
		return fmt.Errorf("replacer: %s: length %d > cap %d", p.name, p.length, p.capacity)
	}
	if (p.hand == nil) != (p.length == 0) {
		return fmt.Errorf("replacer: %s: hand nil=%v with length %d", p.name, p.hand == nil, p.length)
	}
	if !deep {
		return nil
	}
	tabled := 0
	p.table.Range(func(_, _ any) bool { tabled++; return true })
	if tabled != p.length {
		return fmt.Errorf("replacer: %s: table %d != length %d", p.name, tabled, p.length)
	}
	if p.hand == nil {
		return nil
	}
	n := 0
	for nd := p.hand; ; nd = nd.next {
		if nd.next.prev != nd || nd.prev.next != nd {
			return fmt.Errorf("replacer: %s: broken ring links at %v", p.name, nd.id)
		}
		if ref := nd.ref.Load(); ref < 0 || ref > p.maxCount {
			return fmt.Errorf("replacer: %s: page %v reference count %d outside [0, %d]", p.name, nd.id, ref, p.maxCount)
		}
		if v, ok := p.table.Load(nd.id); !ok || v.(*clockNode) != nd {
			return fmt.Errorf("replacer: %s: ring node %v not backed by table entry", p.name, nd.id)
		}
		n++
		if n > p.length {
			return fmt.Errorf("replacer: %s: ring walk exceeds length %d", p.name, p.length)
		}
		if nd.next == p.hand {
			break
		}
	}
	if n != p.length {
		return fmt.Errorf("replacer: %s: ring holds %d nodes, length %d", p.name, n, p.length)
	}
	return nil
}

// ---- CLOCK-Pro ----

func (p *ClockPro) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *ClockPro) checkInvariants(deep bool) error {
	if p.Len() > p.capacity {
		return fmt.Errorf("replacer: clockpro: Len %d > cap %d", p.Len(), p.capacity)
	}
	if p.nNR > p.capacity {
		return fmt.Errorf("replacer: clockpro: %d non-resident pages > cap %d", p.nNR, p.capacity)
	}
	if p.coldTarget < 1 || p.coldTarget > p.capacity {
		return fmt.Errorf("replacer: clockpro: cold target %d outside [1, %d]", p.coldTarget, p.capacity)
	}
	if got, want := p.table.len(), p.nHot+p.nColdRes+p.nNR; got != want {
		return fmt.Errorf("replacer: clockpro: table %d != hot+cold+nonres %d", got, want)
	}
	if (p.handHot == nil) != (p.table.len() == 0) {
		return fmt.Errorf("replacer: clockpro: hands nil=%v with %d entries", p.handHot == nil, p.table.len())
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	if p.handHot == nil {
		return nil
	}
	var hot, coldRes, nonRes, n int
	for e := p.handHot; ; e = e.next {
		if e.next.prev != e || e.prev.next != e {
			return fmt.Errorf("replacer: clockpro: broken ring links at %v", e.id)
		}
		switch {
		case e.hot:
			hot++
			if !e.resident {
				return fmt.Errorf("replacer: clockpro: hot page %v not resident", e.id)
			}
			if e.test {
				return fmt.Errorf("replacer: clockpro: hot page %v in a test period", e.id)
			}
		case e.resident:
			coldRes++
		default:
			nonRes++
			if !e.test {
				return fmt.Errorf("replacer: clockpro: non-resident page %v outside its test period", e.id)
			}
		}
		if p.table.get(e.id) != e {
			return fmt.Errorf("replacer: clockpro: ring node %v not backed by table entry", e.id)
		}
		n++
		if n > p.table.len() {
			return fmt.Errorf("replacer: clockpro: ring walk exceeds table size %d", p.table.len())
		}
		if e.next == p.handHot {
			break
		}
	}
	if hot != p.nHot || coldRes != p.nColdRes || nonRes != p.nNR {
		return fmt.Errorf("replacer: clockpro: counted hot/cold/nonres %d/%d/%d, recorded %d/%d/%d",
			hot, coldRes, nonRes, p.nHot, p.nColdRes, p.nNR)
	}
	for _, hand := range []*cpEntry{p.handCold, p.handTest} {
		if hand == nil {
			return fmt.Errorf("replacer: clockpro: a hand is nil while the ring holds %d entries", n)
		}
	}
	return nil
}

// ---- MQ ----

func (p *MQ) CheckInvariants() error { return p.checkInvariants(deepInvariants) }

func (p *MQ) checkInvariants(deep bool) error {
	if p.length > p.capacity {
		return fmt.Errorf("replacer: mq: length %d > cap %d", p.length, p.capacity)
	}
	sum := 0
	for _, q := range p.queues {
		sum += q.len()
	}
	if sum != p.length {
		return fmt.Errorf("replacer: mq: queue sum %d != length %d", sum, p.length)
	}
	if got, want := p.table.len(), p.length+p.qout.len(); got != want {
		return fmt.Errorf("replacer: mq: table %d != resident+ghosts %d", got, want)
	}
	if p.qout.len() > p.qoutCap {
		return fmt.Errorf("replacer: mq: qout %d > cap %d", p.qout.len(), p.qoutCap)
	}
	if !deep {
		return nil
	}
	if err := p.table.check(); err != nil {
		return err
	}
	for k, q := range p.queues {
		_, err := walkList("mq", fmt.Sprintf("queue[%d]", k), q, func(nd *node) error {
			if nd.ghost {
				return fmt.Errorf("replacer: mq: ghost %v on frequency queue %d", nd.id, k)
			}
			if nd.level != k {
				return fmt.Errorf("replacer: mq: node %v has level %d on queue %d", nd.id, nd.level, k)
			}
			if nd.level != p.queueFor(nd.count) && nd.level >= p.queueFor(nd.count) {
				// A node may sit BELOW its frequency's natural queue after
				// expiry demotion, never above it.
				return fmt.Errorf("replacer: mq: node %v (freq %d) above its natural queue %d",
					nd.id, nd.count, p.queueFor(nd.count))
			}
			return inTable("mq", "queue", &p.table, nd)
		})
		if err != nil {
			return err
		}
	}
	_, err := walkList("mq", "qout", p.qout, func(nd *node) error {
		if !nd.ghost {
			return fmt.Errorf("replacer: mq: resident page %v on the ghost queue", nd.id)
		}
		return inTable("mq", "qout", &p.table, nd)
	})
	return err
}
