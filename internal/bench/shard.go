package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/txn"
	"bpwrapper/internal/workload"
)

// ---------------------------------------------------------------------------
// Experiment E14 — the sharded pool: hash-partitioned shards, each with its
// own BP-Wrapper + policy instance (buffer.Config.Shards).
//
// The paper rejects distributed-lock designs because they fragment the
// replacement algorithm's access history (Section V-A); E10 measures that
// cost in the simulator behind a single pool lock. The sharded pool is the
// production-shaped variant: the pool *infrastructure* (frames, page
// table, free list, quarantine) shards trivially, and each shard's policy
// lock + batching queue is private. E14 answers the open question in two
// sweeps:
//
//   - throughput: shards × {pg2Q, pgBat, pgBatFC} on real goroutines —
//     does batching still pay once sharding has divided the lock, or does
//     sharding alone dissolve the contention? (Nondeterministic; real
//     mode only — the simulator cannot model per-shard batching.)
//   - hit ratio: shards × ghost-history policies on one recorded trace,
//     replayed sequentially through the REAL sharded pool — the history-
//     fragmentation cost, exactly reproducible and therefore the part
//     committed as the results/BENCH_shard.json CI baseline.

// Shard-experiment tuning: the contended queue tuning of the combine
// experiment (a commit every four accesses keeps per-shard locks busy
// enough to compare commit protocols), and an undersized hit-sweep pool
// (eviction pressure is what exercises ghost history).
const (
	ShardQueueSize    = CombineQueueSize
	ShardThreshold    = CombineThreshold
	ShardHitFrames    = 1024
	shardHitTraceTxns = 120 // ~65k accesses: enough eviction churn, regenerates in well under a minute
)

// ShardThroughputRow is one (workload, system, shards) point of the
// throughput sweep.
type ShardThroughputRow struct {
	Workload       string  `json:"workload"`
	System         string  `json:"system"` // pg2Q, pgBat, pgBatFC
	Shards         int     `json:"shards"`
	Procs          int     `json:"procs"`
	ThroughputTPS  float64 `json:"throughput_tps"`
	ContentionPerM float64 `json:"contention_per_m"`
}

// ShardHitRow is one (policy, shards) point of the deterministic hit-ratio
// sweep.
type ShardHitRow struct {
	Policy   string  `json:"policy"`
	Shards   int     `json:"shards"`
	Accesses int64   `json:"accesses"`
	HitRatio float64 `json:"hit_ratio"`
}

// ShardReport is the full E14 result; HitRows is always present (and is
// the committed baseline), ThroughputRows only in real mode.
type ShardReport struct {
	Experiment     string               `json:"experiment"`
	Mode           string               `json:"mode"`
	Seed           int64                `json:"seed"`
	QueueSize      int                  `json:"queue_size"`
	BatchThreshold int                  `json:"batch_threshold"`
	HitFrames      int                  `json:"hit_frames"`
	HitRows        []ShardHitRow        `json:"hit_rows"`
	ThroughputRows []ShardThroughputRow `json:"throughput_rows,omitempty"`
}

// ShardExperiment runs E14. The hit-ratio sweep always runs (it is
// deterministic regardless of mode); the throughput sweep runs only in
// real mode, at the given processor count — the simulator models lock
// partitioning only without batching (sim.Config.LockPartitions), so a
// per-shard batched pool has no sim counterpart.
func ShardExperiment(shardCounts []int, procs int, o Options) (*ShardReport, error) {
	o = o.withDefaults()
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	rep := &ShardReport{
		Experiment:     "shard",
		Mode:           string(o.Mode),
		Seed:           o.Seed,
		QueueSize:      ShardQueueSize,
		BatchThreshold: ShardThreshold,
		HitFrames:      ShardHitFrames,
	}

	hitRows, err := shardHitSweep(shardCounts, o.Seed)
	if err != nil {
		return nil, err
	}
	rep.HitRows = hitRows

	if o.Mode == ModeReal {
		systems := []System{System2Q, SystemBat, SystemFC}
		for _, wl := range o.Workloads {
			for _, shards := range shardCounts {
				for _, sys := range systems {
					row, err := shardThroughputPoint(sys, wl, shards, procs, o)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/shards=%d: %w", wl.Name(), sys.Name, shards, err)
					}
					rep.ThroughputRows = append(rep.ThroughputRows, row)
				}
			}
		}
	}
	return rep, nil
}

// shardHitSweep replays one recorded scan-plus-point-lookup trace (the E10
// access shape, where ghost history and sequence detection earn their
// keep) sequentially through real sharded pools. One goroutine, one
// session, direct commits, an in-memory device: byte-identical results on
// every run, which is what lets the JSON land in the repository as a CI
// drift check.
func shardHitSweep(shardCounts []int, seed int64) ([]ShardHitRow, error) {
	wl := scanMixWorkload{
		scanTable: workload.NewTable(1, 1<<22),
		scanLen:   200,
		point:     workload.NewZipf(workload.SyntheticConfig{Pages: 1 << 14, TxnLen: 24, TableID: 100}),
	}
	tr := trace.Record(wl, 8, shardHitTraceTxns, seed)
	policies := []string{"lru", "2q", "lirs", "arc", "seq"}
	factories := replacer.Factories()
	var rows []ShardHitRow
	for _, name := range policies {
		f, ok := factories[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown policy %q", name)
		}
		for _, shards := range shardCounts {
			row, err := shardHitPoint(name, f, shards, tr)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// shardHitPoint drives one sharded pool over the trace.
func shardHitPoint(policy string, f replacer.Factory, shards int, tr *trace.Trace) (ShardHitRow, error) {
	pool := buffer.New(buffer.Config{
		Frames:        ShardHitFrames,
		Shards:        shards,
		PolicyFactory: f,
		Wrapper:       core.Config{}, // direct commits: the sweep measures history, not locks
		Device:        storage.NewNullDevice(),
	})
	s := pool.NewSession()
	for _, a := range tr.Accesses {
		ref, err := pool.Get(s, a.Page)
		if err != nil {
			return ShardHitRow{}, fmt.Errorf("shard hit sweep %s/shards=%d: %w", policy, shards, err)
		}
		ref.Release()
	}
	s.Flush()
	st := pool.AccessStats()
	return ShardHitRow{
		Policy:   policy,
		Shards:   shards,
		Accesses: st.Accesses(),
		HitRatio: st.HitRatio(),
	}, nil
}

// shardThroughputPoint measures one (system, workload, shards) point on
// real goroutines, fully cached and pre-warmed like the combine
// experiment, so differences are pure commit-path-times-shard-count
// differences.
func shardThroughputPoint(sys System, wl workload.Workload, shards, procs int, o Options) (ShardThroughputRow, error) {
	frames := wl.DataPages()
	f, err := sys.policyFactory()
	if err != nil {
		return ShardThroughputRow{}, err
	}
	pool := buffer.New(buffer.Config{
		Frames:        frames,
		Shards:        shards,
		PolicyFactory: f,
		Wrapper:       sys.WrapperConfig(ShardQueueSize, ShardThreshold),
		Device:        storage.NewNullDevice(),
	})
	if err := pool.Prewarm(wl.Pages()); err != nil {
		return ShardThroughputRow{}, err
	}
	tcfg := txn.Config{
		Pool:          pool,
		Workload:      wl,
		Workers:       o.WorkersPerProc * procs,
		Procs:         procs,
		Seed:          o.Seed,
		TouchBytes:    true,
		Duration:      o.Duration,
		TxnsPerWorker: o.TxnsPerWorker,
	}
	if o.TxnsPerWorker > 0 {
		tcfg.Duration = 0
	}
	res, err := txn.Run(tcfg)
	if err != nil {
		return ShardThroughputRow{}, err
	}
	return ShardThroughputRow{
		Workload:       wl.Name(),
		System:         sys.Name,
		Shards:         shards,
		Procs:          procs,
		ThroughputTPS:  res.ThroughputTPS,
		ContentionPerM: res.ContentionPerM,
	}, nil
}

// JSONShard writes the report as the committed-baseline JSON document.
// Only HitRows are deterministic; scripts/bench_shard.sh therefore runs
// this experiment in sim mode, where ThroughputRows are absent and the
// document is byte-stable.
func JSONShard(w io.Writer, rep *ShardReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// PrintShard renders both sweeps in paper shape.
func PrintShard(w io.Writer, rep *ShardReport) {
	fmt.Fprintln(w, "Sharded pool (E14) — per-shard BP-Wrapper vs shard count")
	fmt.Fprintf(w, "\nHit-ratio cost of fragmenting the policy history (scan+point trace, %d frames)\n", rep.HitFrames)
	fmt.Fprintf(w, "  %-8s %8s %12s %12s\n", "policy", "shards", "accesses", "hit ratio")
	for _, r := range rep.HitRows {
		fmt.Fprintf(w, "  %-8s %8d %12d %11.2f%%\n", r.Policy, r.Shards, r.Accesses, 100*r.HitRatio)
	}
	if len(rep.ThroughputRows) == 0 {
		fmt.Fprintln(w, "\n(throughput sweep requires -mode real: the simulator cannot model per-shard batching)")
		return
	}
	fmt.Fprintf(w, "\nThroughput — batching benefit vs shard count (queue %d, threshold %d)\n",
		rep.QueueSize, rep.BatchThreshold)
	type key struct {
		wl     string
		shards int
	}
	byPoint := map[key]map[string]ShardThroughputRow{}
	var order []key
	for _, r := range rep.ThroughputRows {
		k := key{r.Workload, r.Shards}
		if byPoint[k] == nil {
			byPoint[k] = map[string]ShardThroughputRow{}
			order = append(order, k)
		}
		byPoint[k][r.System] = r
	}
	lastWl := ""
	for _, k := range order {
		if k.wl != lastWl {
			fmt.Fprintf(w, "\n%s\n", k.wl)
			fmt.Fprintf(w, "  %6s  %12s  %12s  %12s  %8s  %8s\n",
				"shards", "pg2Q tps", "pgBat tps", "pgBatFC tps", "Bat/2Q", "FC/Bat")
			lastWl = k.wl
		}
		m := byPoint[k]
		base, bat, fc := m[System2Q.Name], m[SystemBat.Name], m[SystemFC.Name]
		batRatio, fcRatio := 0.0, 0.0
		if base.ThroughputTPS > 0 {
			batRatio = bat.ThroughputTPS / base.ThroughputTPS
		}
		if bat.ThroughputTPS > 0 {
			fcRatio = fc.ThroughputTPS / bat.ThroughputTPS
		}
		fmt.Fprintf(w, "  %6d  %12.0f  %12.0f  %12.0f  %8.3f  %8.3f\n",
			k.shards, base.ThroughputTPS, bat.ThroughputTPS, fc.ThroughputTPS, batRatio, fcRatio)
	}
}

// CSVShard writes both sweeps in long form, hit rows first.
func CSVShard(w io.Writer, rep *ShardReport) error {
	if _, err := fmt.Fprintln(w, "kind,workload,system,policy,shards,procs,throughput_tps,contention_per_m,accesses,hit_ratio"); err != nil {
		return err
	}
	for _, r := range rep.HitRows {
		if _, err := fmt.Fprintf(w, "hit,,,%s,%d,,,,%d,%.6f\n",
			r.Policy, r.Shards, r.Accesses, r.HitRatio); err != nil {
			return err
		}
	}
	for _, r := range rep.ThroughputRows {
		if _, err := fmt.Fprintf(w, "throughput,%s,%s,,%d,%d,%.1f,%.2f,,\n",
			r.Workload, r.System, r.Shards, r.Procs, r.ThroughputTPS, r.ContentionPerM); err != nil {
			return err
		}
	}
	return nil
}
