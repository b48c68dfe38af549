// Allocation guards for the page-sized paths: a dirty eviction's
// write-back and a pipelined wire GET must move page bytes through
// recycled buffers, not a fresh 8 KB allocation per page. Like
// TestTraceHitPathZeroAlloc they count bytes, not time, so they are
// deterministic and run in every ordinary test pass.
package bpwrapper_test

import (
	"runtime"
	"testing"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/server"
	"bpwrapper/internal/storage"
)

// bytesPerOp runs op n times on the calling goroutine and returns the
// heap bytes allocated per call (the TotalAlloc delta, which a collection
// mid-loop does not reset).
func bytesPerOp(n int, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestDirtyEvictionAllocGuard cycles GetWrite+MarkDirty over four times
// more pages than a one-shard 2Q pool has frames, so nearly every access
// evicts a dirty page and writes it back. With every page already stored
// once on the device, the quarantine copy and the device write must both
// reuse memory: what is left is the miss path's small bookkeeping.
func TestDirtyEvictionAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled copies at random under the race detector")
	}
	const frames, pages, ops, budget = 64, 256, 8192, 1024
	pool := buffer.New(buffer.Config{
		Frames:        frames,
		Shards:        1,
		PolicyFactory: replacer.Factories()["2q"],
		Device:        storage.NewMemDevice(),
	})
	s := pool.NewSession()
	write := func(i int) {
		ref, err := pool.GetWrite(s, page.NewPageID(1, uint64(i%pages)))
		if err != nil {
			t.Fatal(err)
		}
		ref.Data()[0] = byte(i)
		ref.MarkDirty()
		ref.Release()
	}
	// Two passes: the first stores every page on the device, the second
	// brings the recycled copies into steady state.
	for i := 0; i < 2*pages; i++ {
		write(i)
	}
	perOp := bytesPerOp(ops, write)
	s.Flush()
	if w := pool.Stats().Device.Writes; w < ops {
		t.Fatalf("only %d device writes: the loop is not evicting dirty pages", w)
	}
	t.Logf("dirty eviction: %.0f B/op (budget %d)", perOp, budget)
	if perOp >= budget {
		t.Errorf("dirty eviction allocates %.0f B/op, want < %d", perOp, budget)
	}
}

// TestMissPathZeroAlloc cycles clean reads over four times more pages than
// a one-shard 2Q pool has frames, so every access misses: it records the
// miss, claims a clean victim's frame, admits the page, single-flights the
// load and installs the frame. None of that may allocate.
func TestMissPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled load ops at random under the race detector")
	}
	const frames, pages = 64, 256
	pool := buffer.New(buffer.Config{
		Frames:        frames,
		Shards:        1,
		PolicyFactory: replacer.Factories()["2q"],
		Device:        storage.NewMemDevice(),
	})
	s := pool.NewSession()
	i := 0
	read := func() {
		ref, err := pool.Get(s, page.NewPageID(1, uint64(i%pages)))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
		i++
	}
	for i < 2*pages {
		read()
	}
	s.Flush()
	before := pool.AccessStats()
	allocs := testing.AllocsPerRun(4*pages, read)
	s.Flush()
	after := pool.AccessStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 0 || misses < 4*pages {
		t.Fatalf("%d hits and %d misses: the loop is not missing on every access", hits, misses)
	}
	if allocs != 0 {
		t.Errorf("a clean miss allocates %.2f times, want 0", allocs)
	}
}

// TestClientDoAllocGuard sends bursts of 16 pipelined GETs of resident
// pages through Client.Do against an in-process server. The results and
// their page bytes reuse the client's buffers, so a GET costs only the
// per-burst bookkeeping on both ends of the wire.
func TestClientDoAllocGuard(t *testing.T) {
	const burst, bursts, budget = 16, 512, 256
	pool := buffer.New(buffer.Config{
		Frames:        1024,
		PolicyFactory: replacer.Factories()["2q"],
		Device:        storage.NewMemDevice(),
	})
	srv, err := server.New(server.Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := make([]server.Op, burst)
	do := func(i int) {
		for j := range ops {
			ops[j] = server.Op{Code: server.OpGet, Page: page.NewPageID(1, uint64((i*burst+j)%512))}
		}
		res, err := c.Do(ops)
		if err != nil {
			t.Fatal(err)
		}
		for j := range res {
			if res[j].Err != nil || len(res[j].Data) != page.Size {
				t.Fatalf("GET %d: err %v, %d bytes", j, res[j].Err, len(res[j].Data))
			}
		}
	}
	// Warm the pool (every page resident) and both ends' buffers.
	for i := 0; i < 2*512/burst; i++ {
		do(i)
	}
	perOp := bytesPerOp(bursts, do) / burst
	t.Logf("Client.Do: %.0f B per GET (budget %d)", perOp, budget)
	if perOp >= budget {
		t.Errorf("Client.Do allocates %.0f B per GET, want < %d", perOp, budget)
	}
}
