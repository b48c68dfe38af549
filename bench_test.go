// Benchmarks regenerating the BP-Wrapper paper's tables and figures, one
// testing.B target per exhibit, plus wall-clock micro-benchmarks of the
// real implementation.
//
// The figure/table benches run the deterministic multiprocessor simulator
// (see DESIGN.md) and attach the paper's metrics — throughput, average
// lock contention per million accesses, per-access lock time — as custom
// benchmark metrics; the ns/op of those benches measures the simulator
// itself and is not the reproduced quantity. Run with:
//
//	go test -bench=. -benchmem
//
// For full, publication-length sweeps use cmd/bpbench instead.
package bpwrapper_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bpwrapper"
	"bpwrapper/internal/bench"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/txn"
	"bpwrapper/internal/workload"
)

// benchOptions keeps simulator runs short enough for testing.B iteration
// while still reaching steady state.
func benchOptions() bench.Options {
	return bench.Options{
		Duration: 30 * time.Millisecond,
		Seed:     1,
		Workloads: []workload.Workload{
			workload.NewTPCW(workload.TPCWConfig{Items: 2000, Customers: 2000, Workers: 64}),
		},
	}
}

// BenchmarkFig2BatchSize regenerates Figure 2: average lock acquisition +
// holding time per page access as the batch size sweeps 1..64 at 16
// processors.
func BenchmarkFig2BatchSize(b *testing.B) {
	for _, batch := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var last []bench.BatchSizeRow
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig2BatchSize(16, []int{batch}, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				last = rows
			}
			b.ReportMetric(float64(last[0].LockTimePerAccess.Nanoseconds()), "lockns/access")
			b.ReportMetric(last[0].ContentionPerM, "contention/M")
		})
	}
}

// BenchmarkFig6Scalability regenerates the Figure 6 envelope: the five
// systems at 16 processors (the full processor sweep is in cmd/bpbench).
func BenchmarkFig6Scalability(b *testing.B) {
	for _, sys := range bench.Systems() {
		b.Run(sys.Name+"/p=16", func(b *testing.B) {
			var last []bench.ScalabilityRow
			for i := 0; i < b.N; i++ {
				rows, err := bench.Scalability([]bench.System{sys}, []int{16}, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				last = rows
			}
			b.ReportMetric(last[0].ThroughputTPS, "tps")
			b.ReportMetric(last[0].ContentionPerM, "contention/M")
			b.ReportMetric(float64(last[0].AvgResponse.Microseconds()), "resp_us")
		})
	}
}

// BenchmarkFig7Scalability regenerates the Figure 7 envelope (8-core
// machine).
func BenchmarkFig7Scalability(b *testing.B) {
	for _, sys := range bench.Systems() {
		b.Run(sys.Name+"/p=8", func(b *testing.B) {
			var last []bench.ScalabilityRow
			for i := 0; i < b.N; i++ {
				rows, err := bench.Scalability([]bench.System{sys}, []int{8}, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				last = rows
			}
			b.ReportMetric(last[0].ThroughputTPS, "tps")
			b.ReportMetric(last[0].ContentionPerM, "contention/M")
		})
	}
}

// BenchmarkTableIIQueueSize regenerates Table II: queue-size sensitivity
// at 16 processors, threshold = size/2.
func BenchmarkTableIIQueueSize(b *testing.B) {
	for _, qs := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("queue=%d", qs), func(b *testing.B) {
			var last []bench.QueueSizeRow
			for i := 0; i < b.N; i++ {
				rows, err := bench.TableIIQueueSize(16, []int{qs}, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				last = rows
			}
			b.ReportMetric(last[0].ThroughputTPS, "tps")
			b.ReportMetric(last[0].ContentionPerM, "contention/M")
		})
	}
}

// BenchmarkTableIIIThreshold regenerates Table III: batch-threshold
// sensitivity with queue size 64.
func BenchmarkTableIIIThreshold(b *testing.B) {
	for _, thr := range []int{1, 2, 4, 8, 16, 32, 48, 64} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			var last []bench.ThresholdRow
			for i := 0; i < b.N; i++ {
				rows, err := bench.TableIIIThreshold(16, []int{thr}, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				last = rows
			}
			b.ReportMetric(last[0].ThroughputTPS, "tps")
			b.ReportMetric(last[0].ContentionPerM, "contention/M")
		})
	}
}

// BenchmarkFig8Overall regenerates Figure 8's envelope: hit ratio and
// throughput at a small and a full-size buffer for the three compared
// systems.
func BenchmarkFig8Overall(b *testing.B) {
	o := benchOptions()
	o.Duration = 60 * time.Millisecond
	for _, frac := range []float64{1.0 / 16, 1} {
		b.Run(fmt.Sprintf("buffer=%.4f", frac), func(b *testing.B) {
			var last []bench.OverallRow
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig8Overall(8, []float64{frac}, storage.SimDiskConfig{}, o)
				if err != nil {
					b.Fatal(err)
				}
				last = rows
			}
			for _, r := range last {
				b.ReportMetric(100*r.HitRatio, "hit%_"+r.System)
				b.ReportMetric(r.ThroughputTPS, "tps_"+r.System)
			}
		})
	}
}

// BenchmarkAblationSharedQueue regenerates the private-vs-shared queue
// ablation (Section III-A's design argument).
func BenchmarkAblationSharedQueue(b *testing.B) {
	var last []bench.SharedQueueRow
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationSharedQueue(16, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		b.ReportMetric(r.ThroughputTPS, "tps_"+r.Design)
	}
}

// BenchmarkAblationPolicies regenerates the policy-independence ablation
// (LIRS and MQ wrapped in place of 2Q).
func BenchmarkAblationPolicies(b *testing.B) {
	var last []bench.PolicyRow
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationPolicies(16, []string{"2q", "lirs", "mq"}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		b.ReportMetric(r.ThroughputTPS, "tps_"+r.Policy+"_"+r.System)
	}
}

// BenchmarkHitRatioFidelity regenerates the E9 extension: batched vs plain
// hit ratios on an identical trace (the Figure 8 curve overlap).
func BenchmarkHitRatioFidelity(b *testing.B) {
	wl := workload.NewTPCW(workload.TPCWConfig{Items: 1000, Customers: 1000, Workers: 8})
	tr := trace.Record(wl, 8, 100, 42)
	var plainHR, batchedHR float64
	for i := 0; i < b.N; i++ {
		plain, _ := bpwrapper.NewPolicy("2q", 256)
		batched, _ := bpwrapper.NewPolicy("2q", 256)
		plainHR = trace.Replay(plain, tr).HitRatio()
		batchedHR = trace.ReplayBatched(batched, tr, 64, 32).HitRatio()
	}
	b.ReportMetric(100*plainHR, "hit%_plain")
	b.ReportMetric(100*batchedHR, "hit%_batched")
	b.ReportMetric(100*(batchedHR-plainHR), "hit%_delta")
}

// ---------------------------------------------------------------------------
// Wall-clock micro-benchmarks of the real implementation.

// BenchmarkPolicyHit measures the per-hit cost of each replacement
// algorithm's bookkeeping (the work BP-Wrapper batches under the lock).
func BenchmarkPolicyHit(b *testing.B) {
	for _, name := range bpwrapper.PolicyNames() {
		b.Run(name, func(b *testing.B) {
			p, _ := bpwrapper.NewPolicy(name, 4096)
			ids := make([]bpwrapper.PageID, 4096)
			for i := range ids {
				ids[i] = bpwrapper.NewPageID(1, uint64(i))
				p.Admit(ids[i])
			}
			r := rand.New(rand.NewSource(1))
			order := make([]int, 1<<14)
			for i := range order {
				order[i] = r.Intn(len(ids))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Hit(ids[order[i%len(order)]])
			}
		})
	}
}

// BenchmarkPolicyAdmit measures the miss-path cost (admission + eviction).
func BenchmarkPolicyAdmit(b *testing.B) {
	for _, name := range bpwrapper.PolicyNames() {
		b.Run(name, func(b *testing.B) {
			p, _ := bpwrapper.NewPolicy(name, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := bpwrapper.NewPageID(1, uint64(i))
				if !p.Contains(id) {
					p.Admit(id)
				}
			}
		})
	}
}

// BenchmarkWrapperHit compares the real per-hit cost through the wrapper:
// unbatched (lock per access) vs batched (lock per 32 accesses) vs the
// lock-free clock path.
func BenchmarkWrapperHit(b *testing.B) {
	cases := []struct {
		name   string
		policy string
		cfg    bpwrapper.WrapperConfig
	}{
		{"2q-unbatched", "2q", bpwrapper.WrapperConfig{}},
		{"2q-batched", "2q", bpwrapper.WrapperConfig{Batching: true}},
		{"2q-batched-prefetch", "2q", bpwrapper.WrapperConfig{Batching: true, Prefetching: true}},
		{"clock-lockfree", "clock", bpwrapper.WrapperConfig{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p, _ := bpwrapper.NewPolicy(c.policy, 1024)
			w := bpwrapper.NewWrapper(p, c.cfg)
			ids := make([]bpwrapper.PageID, 1024)
			for i := range ids {
				ids[i] = bpwrapper.NewPageID(1, uint64(i))
				p.Admit(ids[i])
			}
			s := w.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%1024]
				s.Hit(id, bpwrapper.BufferTag{Page: id})
			}
			b.StopTimer()
			s.Flush()
		})
	}
}

// BenchmarkPoolGet measures the full buffer-manager hit path: hash lookup,
// pin, access record, unpin.
func BenchmarkPoolGet(b *testing.B) {
	for _, batching := range []bool{false, true} {
		name := "unbatched"
		if batching {
			name = "batched"
		}
		b.Run(name, func(b *testing.B) {
			pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
				Frames:        1024,
				PolicyFactory: bpwrapper.PolicyFactories()["2q"],
				Wrapper:       bpwrapper.WrapperConfig{Batching: batching},
				Device:        bpwrapper.NewMemDevice(),
			})
			ids := make([]bpwrapper.PageID, 1024)
			for i := range ids {
				ids[i] = bpwrapper.NewPageID(1, uint64(i))
			}
			if err := pool.Prewarm(ids); err != nil {
				b.Fatal(err)
			}
			s := pool.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, err := pool.Get(s, ids[i%1024])
				if err != nil {
					b.Fatal(err)
				}
				ref.Release()
			}
			b.StopTimer()
			s.Flush()
		})
	}
}

// BenchmarkPoolConcurrent measures the real pool under concurrent load on
// this host (contention shapes depend on the host's core count; the
// simulator benches above are the calibrated reproduction).
func BenchmarkPoolConcurrent(b *testing.B) {
	for _, sys := range []bench.System{bench.System2Q, bench.SystemBatPre, bench.SystemClock} {
		b.Run(sys.Name, func(b *testing.B) {
			wl := workload.NewZipf(workload.SyntheticConfig{Pages: 2048, TxnLen: 16})
			pool, err := sys.NewPool(2048, storage.NewNullDevice(), 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := pool.Prewarm(wl.Pages()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := txn.Run(txn.Config{
				Pool:          pool,
				Workload:      wl,
				Workers:       8,
				TxnsPerWorker: int64(b.N/8 + 1),
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ThroughputTPS, "txn/s")
			b.ReportMetric(res.ContentionPerM, "contention/M")
		})
	}
}

// BenchmarkTraceReplay measures pure policy-simulation throughput, the
// inner loop of the hit-ratio studies.
func BenchmarkTraceReplay(b *testing.B) {
	wl := workload.NewZipf(workload.SyntheticConfig{Pages: 8192, TxnLen: 32})
	tr := trace.Record(wl, 4, 200, 3)
	for _, name := range []string{"lru", "clock", "2q", "lirs", "arc"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(tr.Len()))
			for i := 0; i < b.N; i++ {
				p, _ := bpwrapper.NewPolicy(name, 1024)
				trace.Replay(p, tr)
			}
		})
	}
}

// BenchmarkAblationDistributedLocks regenerates the Section V-A
// comparison: hash-partitioned locks vs the global lock vs BP-Wrapper.
func BenchmarkAblationDistributedLocks(b *testing.B) {
	var last []bench.DistributedRow
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationDistributedLocks(16, []int{16}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		b.ReportMetric(r.ThroughputTPS, "tps_"+r.System)
		b.ReportMetric(r.ContentionPerM, "contM_"+r.System)
	}
}

// BenchmarkAblationPartitionHitRatio regenerates the history-splitting
// cost: global vs partitioned hit ratios for the order-sensitive policies.
func BenchmarkAblationPartitionHitRatio(b *testing.B) {
	var last []bench.PartitionHitRow
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationPartitionHitRatio([]string{"seq", "lirs"}, []int{8}, 1024, 7)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		b.ReportMetric(100*r.HitRatio, fmt.Sprintf("hit%%_%s_p%d", r.Policy, r.Partitions))
	}
}

// BenchmarkAblationAdaptiveThreshold regenerates the E11 extension: the
// self-tuning batch threshold vs fixed settings.
func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	var last []bench.AdaptiveRow
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationAdaptiveThreshold(16, []int{64, 32}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		b.ReportMetric(r.ThroughputTPS, "tps_"+r.Config)
		b.ReportMetric(r.ContentionPerM, "contM_"+r.Config)
	}
}

// BenchmarkCombine regenerates the E12 commit-path comparison envelope:
// baseline vs batched vs flat-combined at 16 processors (the full
// processor sweep and the committed baseline live in cmd/bpbench and
// results/BENCH_combine.json).
func BenchmarkCombine(b *testing.B) {
	var last []bench.CombineRow
	for i := 0; i < b.N; i++ {
		rows, err := bench.CombineExperiment([]int{16}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		b.ReportMetric(r.ThroughputTPS, "tps_"+r.System)
	}
	for _, r := range last {
		if r.System == "pgBatFC" {
			b.ReportMetric(float64(r.HandoffSaved), "handoffs")
			b.ReportMetric(float64(r.CombinedBatches), "combined")
		}
	}
}
