package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// recordingPolicy captures the exact operation sequence delivered to it and
// detects unserialized access with a plain (non-atomic) counter.
type recordingPolicy struct {
	inner replacer.Policy
	ops   []string
	calls int // intentionally unguarded: races surface under -race
}

func newRecording(capacity int) *recordingPolicy {
	return &recordingPolicy{inner: replacer.NewLRU(capacity)}
}

func (r *recordingPolicy) Name() string                 { return "recording" }
func (r *recordingPolicy) Cap() int                     { return r.inner.Cap() }
func (r *recordingPolicy) Len() int                     { return r.inner.Len() }
func (r *recordingPolicy) Contains(id page.PageID) bool { return r.inner.Contains(id) }

func (r *recordingPolicy) Hit(id page.PageID) {
	r.calls++
	r.ops = append(r.ops, "h"+id.String())
	r.inner.Hit(id)
}

func (r *recordingPolicy) Admit(id page.PageID) (page.PageID, bool) {
	r.calls++
	r.ops = append(r.ops, "m"+id.String())
	return r.inner.Admit(id)
}

func (r *recordingPolicy) Evict() (page.PageID, bool) { return r.inner.Evict() }
func (r *recordingPolicy) Remove(id page.PageID)      { r.inner.Remove(id) }

func pid(n uint64) page.PageID { return page.NewPageID(1, n) }

// access drives the session like a buffer manager would: Hit when the
// policy thinks the page resident, Miss otherwise. Single-session use only.
func access(w *Wrapper, s *Session, rec *recordingPolicy, id page.PageID) {
	// With one session we can consult residency directly: pending queued
	// hits never change residency.
	if rec.Contains(id) {
		s.Hit(id, page.BufferTag{Page: id})
	} else {
		s.Miss(id, page.BufferTag{Page: id})
	}
}

func TestUnbatchedAppliesImmediately(t *testing.T) {
	rec := newRecording(4)
	w := New(rec, Config{})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Hit(pid(1), page.BufferTag{})
	if got := len(rec.ops); got != 2 {
		t.Fatalf("ops=%v, want immediate application", rec.ops)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending=%d in unbatched mode", s.Pending())
	}
	st := w.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBatchingDefersUntilThreshold(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, QueueSize: 8, BatchThreshold: 4})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	for i := 0; i < 3; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	if got := len(rec.ops); got != 1 {
		t.Fatalf("policy saw %d ops before threshold, want 1 (the miss)", got)
	}
	if s.Pending() != 3 {
		t.Fatalf("pending=%d, want 3", s.Pending())
	}
	// Fourth hit reaches the threshold; lock is free, so TryLock commits.
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	if got := len(rec.ops); got != 5 {
		t.Fatalf("policy saw %d ops after threshold commit, want 5", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending=%d after commit", s.Pending())
	}
	st := w.Stats()
	if st.TryCommits != 1 || st.ForcedLocks != 0 {
		t.Fatalf("stats %+v: want one TryLock commit", st)
	}
}

func TestBatchingBlocksOnlyWhenFull(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, QueueSize: 6, BatchThreshold: 3})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})

	// Hold the lock from elsewhere so TryLock fails.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		w.Locked(func(replacer.Policy) {
			close(held)
			<-release
		})
	}()
	<-held
	for i := 0; i < 5; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	if s.Pending() != 5 {
		t.Fatalf("pending=%d, want 5 (lock busy, queue not full)", s.Pending())
	}
	// The sixth hit fills the queue: the session must block until the lock
	// frees, then commit all six.
	committed := make(chan struct{})
	go func() {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
		close(committed)
	}()
	// Give the goroutine time to reach the blocking Lock before releasing.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-committed:
		t.Fatal("queue-full commit did not block on the held lock")
	default:
	}
	close(release)
	<-committed
	if s.Pending() != 0 {
		t.Fatalf("pending=%d after forced commit", s.Pending())
	}
	st := w.Stats()
	if st.ForcedLocks != 1 {
		t.Fatalf("forcedLocks=%d, want 1", st.ForcedLocks)
	}
	if st.Lock.Contentions == 0 {
		t.Fatal("blocking commit not counted as contention")
	}
}

func TestMissFlushesQueueInOrder(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, QueueSize: 16, BatchThreshold: 16})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Miss(pid(2), page.BufferTag{})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Hit(pid(2), page.BufferTag{Page: pid(2)})
	s.Miss(pid(3), page.BufferTag{})
	want := []string{"m" + pid(1).String(), "m" + pid(2).String(),
		"h" + pid(1).String(), "h" + pid(2).String(), "m" + pid(3).String()}
	if len(rec.ops) != len(want) {
		t.Fatalf("ops=%v want %v", rec.ops, want)
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("op[%d]=%s want %s (order not preserved)", i, rec.ops[i], want[i])
		}
	}
}

// TestBatchedSequenceEqualsUnbatched is the order-preservation property the
// paper claims: for a single thread, the operation sequence delivered to
// the policy is identical with and without batching — only the timing
// differs.
func TestBatchedSequenceEqualsUnbatched(t *testing.T) {
	trace := make([]page.PageID, 0, 5000)
	for i := 0; i < 5000; i++ {
		trace = append(trace, pid(uint64(i*i)%97))
	}

	run := func(cfg Config) []string {
		rec := newRecording(32)
		w := New(rec, cfg)
		s := w.NewSession()
		for _, id := range trace {
			access(w, s, rec, id)
		}
		s.Flush()
		return rec.ops
	}

	plain := run(Config{})
	batched := run(Config{Batching: true, QueueSize: 64, BatchThreshold: 32})
	if len(plain) != len(batched) {
		t.Fatalf("op counts differ: %d vs %d", len(plain), len(batched))
	}
	for i := range plain {
		if plain[i] != batched[i] {
			t.Fatalf("op[%d]: %s vs %s", i, plain[i], batched[i])
		}
	}
}

func TestFlushCommitsPending(t *testing.T) {
	rec := newRecording(8)
	w := New(rec, Config{Batching: true, QueueSize: 64, BatchThreshold: 64})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	if len(rec.ops) != 1 {
		t.Fatalf("premature commit: %v", rec.ops)
	}
	s.Flush()
	if len(rec.ops) != 3 {
		t.Fatalf("flush did not commit: %v", rec.ops)
	}
	s.Flush() // idempotent on empty queue
	if len(rec.ops) != 3 {
		t.Fatalf("empty flush changed state: %v", rec.ops)
	}
}

func TestValidateDropsStaleEntries(t *testing.T) {
	rec := newRecording(8)
	goodTag := page.BufferTag{Page: pid(1), Gen: 1}
	w := New(rec, Config{
		Batching:  true,
		QueueSize: 8,
		Validate:  func(e Entry) bool { return e.Tag == goodTag },
	})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Hit(pid(1), goodTag)
	s.Hit(pid(1), page.BufferTag{Page: pid(1), Gen: 2}) // stale
	s.Flush()
	st := w.Stats()
	if st.Committed != 1 || st.Dropped != 1 {
		t.Fatalf("committed=%d dropped=%d, want 1/1", st.Committed, st.Dropped)
	}
	if len(rec.ops) != 2 { // miss + one valid hit
		t.Fatalf("ops=%v", rec.ops)
	}
}

func TestLockFreeHitBypassesLock(t *testing.T) {
	clock := replacer.NewClock(8)
	w := New(clock, Config{Batching: true})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	before := w.Stats().Lock.Acquisitions
	for i := 0; i < 100; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	s.Flush() // fold the staged per-session counters; must not take the lock
	st := w.Stats()
	if st.Lock.Acquisitions != before {
		t.Fatalf("clock hits acquired the lock %d times", st.Lock.Acquisitions-before)
	}
	if st.Hits != 100 {
		t.Fatalf("hits=%d", st.Hits)
	}
	if s.Pending() != 0 {
		t.Fatalf("clock hits were queued (pending=%d)", s.Pending())
	}
}

func TestConcurrentSessionsSerializePolicy(t *testing.T) {
	rec := newRecording(512)
	w := New(rec, Config{Batching: true, QueueSize: 16, BatchThreshold: 8})
	// Preload pages so hits dominate.
	w.Locked(func(p replacer.Policy) {
		for i := uint64(0); i < 256; i++ {
			p.Admit(pid(i))
		}
	})
	const workers, perWorker = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := w.NewSession()
			for i := 0; i < perWorker; i++ {
				id := pid(uint64((g*31 + i)) % 256)
				s.Hit(id, page.BufferTag{Page: id})
			}
			s.Flush()
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Hits != workers*perWorker {
		t.Fatalf("hits=%d want %d", st.Hits, workers*perWorker)
	}
	// The recording policy's unguarded counter equals the op count only if
	// every policy call happened under the lock. The 256 preload Admits
	// went through Locked, which bypasses the wrapper's stats.
	if rec.calls != len(rec.ops) || int64(rec.calls) != st.Committed+st.Misses+256 {
		t.Fatalf("calls=%d ops=%d committed=%d: policy access not serialized",
			rec.calls, len(rec.ops), st.Committed)
	}
}

func TestConfigDefaults(t *testing.T) {
	w := New(replacer.NewLRU(4), Config{Batching: true})
	cfg := w.Config()
	if cfg.QueueSize != DefaultQueueSize {
		t.Errorf("QueueSize=%d", cfg.QueueSize)
	}
	if cfg.BatchThreshold != DefaultQueueSize/2 {
		t.Errorf("BatchThreshold=%d", cfg.BatchThreshold)
	}
	w2 := New(replacer.NewLRU(4), Config{Batching: true, QueueSize: 10, BatchThreshold: 99})
	if got := w2.Config().BatchThreshold; got != 10 {
		t.Errorf("threshold not clamped to queue size: %d", got)
	}
}

func TestResetStats(t *testing.T) {
	w := New(replacer.NewLRU(4), Config{Batching: true, QueueSize: 4, BatchThreshold: 2})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Flush()
	w.ResetStats()
	st := w.Stats()
	if st.Accesses != 0 || st.Commits != 0 || st.Lock.Acquisitions != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
}

func TestPrefetchingConfig(t *testing.T) {
	// Prefetching with a supporting policy must not change behaviour.
	rec := replacer.NewTwoQ(32)
	w := New(rec, Config{Batching: true, Prefetching: true, QueueSize: 8, BatchThreshold: 4})
	s := w.NewSession()
	for i := uint64(0); i < 100; i++ {
		id := pid(i % 20)
		if rec.Contains(id) {
			s.Hit(id, page.BufferTag{Page: id})
		} else {
			s.Miss(id, page.BufferTag{})
		}
	}
	s.Flush()
	st := w.Stats()
	if st.Accesses != 100 {
		t.Fatalf("accesses=%d", st.Accesses)
	}
}

func TestAdaptiveThresholdMovesDown(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, AdaptiveThreshold: true, QueueSize: 32, BatchThreshold: 16})
	s := w.NewSession()
	if s.Threshold() != 16 {
		t.Fatalf("initial threshold %d", s.Threshold())
	}
	// Hold the lock so every TryLock fails and the queue fills, forcing a
	// blocking commit — the adaptation must lower the threshold.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		w.Locked(func(replacer.Policy) {
			close(held)
			<-release
		})
	}()
	<-held
	done := make(chan struct{})
	go func() {
		for i := 0; i < 32; i++ {
			s.Hit(pid(1), page.BufferTag{Page: pid(1)})
		}
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	close(release)
	<-done
	if s.Threshold() >= 16 {
		t.Fatalf("threshold %d did not move down after a forced commit", s.Threshold())
	}
	if s.Threshold() < 32/8 {
		t.Fatalf("threshold %d fell below the floor", s.Threshold())
	}
}

func TestAdaptiveThresholdMovesUp(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, AdaptiveThreshold: true, QueueSize: 32, BatchThreshold: 8})
	s := w.NewSession()
	// Uncontended lock: every threshold crossing succeeds on the first
	// TryLock; after 8 such commits the threshold creeps up by one.
	for round := 0; round < 8*9; round++ {
		for i := 0; i < s.Threshold(); i++ {
			s.Hit(pid(1), page.BufferTag{Page: pid(1)})
		}
	}
	if s.Threshold() <= 8 {
		t.Fatalf("threshold %d did not move up under an uncontended lock", s.Threshold())
	}
	if s.Threshold() > 3*32/4 {
		t.Fatalf("threshold %d exceeded the ceiling", s.Threshold())
	}
}

func TestAdaptiveThresholdBounded(t *testing.T) {
	// Long mixed run: the threshold must stay within its documented band.
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, AdaptiveThreshold: true, QueueSize: 64})
	s := w.NewSession()
	for i := 0; i < 50000; i++ {
		s.Hit(pid(uint64(i%3)), page.BufferTag{Page: pid(uint64(i % 3))})
		thr := s.Threshold()
		if thr < 64/8 || thr > 3*64/4 {
			t.Fatalf("threshold %d escaped [8, 48] at step %d", thr, i)
		}
	}
	s.Flush()
}

// TestMissLockedAppliesQueuedHitsFirst: the locked-miss entry point runs
// its function only after the session's published batch (flat combining)
// and queued hits have reached the policy, oldest first, and all of it
// happens in one lock acquisition.
func TestMissLockedAppliesQueuedHitsFirst(t *testing.T) {
	for _, fc := range []bool{false, true} {
		rec := newRecording(4)
		// Plain batching keeps all three hits queued; flat combining
		// publishes the first two (the lock is busy, so nobody drains
		// them) and queues the third.
		thr := 4
		if fc {
			thr = 2
		}
		w := New(rec, Config{Batching: true, FlatCombining: fc, QueueSize: 8, BatchThreshold: thr})
		s := w.NewSession()
		var want []string
		for i := uint64(1); i <= 3; i++ {
			s.Miss(pid(i), page.BufferTag{})
			want = append(want, "m"+pid(i).String())
		}
		w.Locked(func(replacer.Policy) {
			s.Hit(pid(2), page.BufferTag{Page: pid(2)})
			s.Hit(pid(1), page.BufferTag{Page: pid(1)})
		})
		s.Hit(pid(3), page.BufferTag{Page: pid(3)})
		if s.Pending() != 3 {
			t.Fatalf("fc=%v: %d hits pending before the miss, want 3", fc, s.Pending())
		}
		want = append(want, "h"+pid(2).String(), "h"+pid(1).String(), "h"+pid(3).String())

		before := w.Stats().Lock.Acquisitions
		var seen []string
		s.MissLocked(pid(4), func(pol replacer.Policy) {
			seen = append(seen, rec.ops...)
			if _, ev := pol.Admit(pid(4)); ev {
				t.Errorf("fc=%v: admit below capacity evicted", fc)
			}
		})
		if got := w.Stats().Lock.Acquisitions - before; got != 1 {
			t.Fatalf("fc=%v: miss took the lock %d times, want 1", fc, got)
		}
		if strings.Join(seen, " ") != strings.Join(want, " ") {
			t.Fatalf("fc=%v: policy saw %v before the miss function, want %v", fc, seen, want)
		}
		if last := rec.ops[len(rec.ops)-1]; last != "m"+pid(4).String() {
			t.Fatalf("fc=%v: last policy op %s, want the admit of %v", fc, last, pid(4))
		}
		if s.Pending() != 0 {
			t.Fatalf("fc=%v: %d hits still pending after the miss", fc, s.Pending())
		}
		if st := w.Stats(); st.Misses != 4 {
			t.Fatalf("fc=%v: misses=%d, want 4", fc, st.Misses)
		}
	}
}

func TestAdaptDownFloor(t *testing.T) {
	w := New(replacer.NewLRU(4), Config{Batching: true, AdaptiveThreshold: true, QueueSize: 4, BatchThreshold: 1})
	s := w.NewSession()
	// QueueSize/8 == 0 → floor must clamp to 1 and never go below.
	for i := 0; i < 10; i++ {
		s.adaptDown()
	}
	if s.Threshold() != 1 {
		t.Fatalf("threshold %d, want floor 1", s.Threshold())
	}
}
