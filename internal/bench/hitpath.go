package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// ---------------------------------------------------------------------------
// Experiment E17 — the lock-free hit path: seqlock bucket lookups plus a
// single pin CAS on the frame's packed state word (DESIGN.md §12), A/B'd
// against buffer.Config.LockedHitPath, which forces every lookup through
// the bucket mutex (the pre-rewrite behavior).
//
// Two sweeps answer two different questions:
//
//   - counters: a seeded, single-goroutine, 100%-resident read workload
//     driven through both paths. Every access is a hit, so the hit-path
//     anatomy counters are exact and byte-identical on every run: the
//     optimistic path must serve every hit fast (Fast == Hits) with zero
//     bucket/frame lock acquisitions, while the locked path pays a bucket
//     lock per lookup (plus one per commit validation). This is the part
//     committed as results/BENCH_hitpath.json and drift-checked by CI.
//   - scaling: real goroutines hammering resident reads at 1..procs
//     workers, locked vs optimistic. Wall-clock dependent, so real mode
//     only and never committed; the acceptance figure is near-linear
//     optimistic scaling where the locked path flattens on the shared
//     bucket mutexes.

// Hitpath-experiment tuning: enough frames that the working set shards
// cleanly, and a working set at half occupancy so no shard's partition can
// overflow its frame count (residency stays 100% even at Shards > 1).
const (
	HitpathFrames   = 512
	HitpathPages    = HitpathFrames / 2
	hitpathAccesses = 1 << 16
)

// HitpathCounterRow is one (path, shards) point of the deterministic
// counter sweep. All fields are exact post-Flush totals.
type HitpathCounterRow struct {
	Path           string `json:"path"` // "optimistic" or "locked"
	Shards         int    `json:"shards"`
	Accesses       int64  `json:"accesses"`
	Hits           int64  `json:"hits"`
	Fast           int64  `json:"fast"`      // hits served with zero mutex acquisitions
	Retries        int64  `json:"retries"`   // torn optimistic probes retried
	Fallbacks      int64  `json:"fallbacks"` // lookups that fell back to the bucket mutex
	BucketLockAcqs int64  `json:"bucket_lock_acqs"`
	FrameLockAcqs  int64  `json:"frame_lock_acqs"`
}

// HitpathScaleRow is one (path, procs) point of the real-mode scaling
// sweep. NsPerOp is the mean per-worker latency of one resident Get
// (elapsed × procs / ops).
type HitpathScaleRow struct {
	Path           string  `json:"path"`
	Procs          int     `json:"procs"`
	Ops            int64   `json:"ops"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	NsPerOp        float64 `json:"ns_per_op"`
	FastFrac       float64 `json:"fast_frac"` // Fast / Hits
	BucketLockAcqs int64   `json:"bucket_lock_acqs"`
	FrameLockAcqs  int64   `json:"frame_lock_acqs"`
}

// HitpathReport is the full E17 result; CounterRows is always present (and
// is the committed baseline), ScaleRows only in real mode.
type HitpathReport struct {
	Experiment  string              `json:"experiment"`
	Mode        string              `json:"mode"`
	Seed        int64               `json:"seed"`
	Frames      int                 `json:"frames"`
	Pages       int                 `json:"pages"`
	CounterRows []HitpathCounterRow `json:"counter_rows"`
	ScaleRows   []HitpathScaleRow   `json:"scale_rows,omitempty"`
}

// hitpathPaths enumerates the A/B arms.
var hitpathPaths = []struct {
	name   string
	locked bool
}{{"optimistic", false}, {"locked", true}}

// HitpathExperiment runs E17. The counter sweep always runs; the scaling
// sweep runs only in real mode, over worker counts 1,2,4,... capped at
// procs.
func HitpathExperiment(procs int, o Options) (*HitpathReport, error) {
	o = o.withDefaults()
	rep := &HitpathReport{
		Experiment: "hitpath",
		Mode:       string(o.Mode),
		Seed:       o.Seed,
		Frames:     HitpathFrames,
		Pages:      HitpathPages,
	}
	for _, shards := range []int{1, 4} {
		for _, p := range hitpathPaths {
			row, err := hitpathCounterPoint(p.name, p.locked, shards, o.Seed)
			if err != nil {
				return nil, fmt.Errorf("hitpath counters %s/shards=%d: %w", p.name, shards, err)
			}
			rep.CounterRows = append(rep.CounterRows, row)
		}
	}
	if o.Mode == ModeReal {
		for p := 1; p <= procs; p *= 2 {
			for _, path := range hitpathPaths {
				row, err := hitpathScalePoint(path.name, path.locked, p, o)
				if err != nil {
					return nil, fmt.Errorf("hitpath scaling %s/procs=%d: %w", path.name, p, err)
				}
				rep.ScaleRows = append(rep.ScaleRows, row)
			}
		}
	}
	return rep, nil
}

// hitpathPool builds a fully resident pool for one arm: null device,
// direct commits (the sweep measures the lookup+pin protocol, not the
// commit protocol), pre-warmed with the whole working set and its counters
// reset so every figure in the row is hit-path activity only. Like
// buildPoolObs, a set o.Obs takes over the live registry so `bpbench
// -obs` (and bpstat's fast%/retries/fallbk columns) show the arm
// currently running.
func hitpathPool(locked bool, shards int, o Options) (*buffer.Pool, []page.PageID, error) {
	cfg := buffer.Config{
		Frames:        HitpathFrames,
		Shards:        shards,
		Wrapper:       core.Config{},
		Device:        storage.NewNullDevice(),
		LockedHitPath: locked,
		PolicyFactory: replacer.Factories()["lru"],
	}
	if o.Obs != nil {
		cfg.RecorderSize = 4096
	}
	pool := buffer.New(cfg)
	if o.Obs != nil {
		o.Obs.Clear()
		pool.RegisterObs(o.Obs)
	}
	ids := make([]page.PageID, HitpathPages)
	for i := range ids {
		ids[i] = page.PageID(i + 1)
	}
	if err := pool.Prewarm(ids); err != nil {
		return nil, nil, err
	}
	pool.ResetStats()
	return pool, ids, nil
}

// hitpathCounterPoint drives one arm single-threaded over a seeded access
// stream and reads the anatomy off Stats. One goroutine, every page
// resident: the counters are exact and reproducible from the seed.
func hitpathCounterPoint(name string, locked bool, shards int, seed int64) (HitpathCounterRow, error) {
	pool, ids, err := hitpathPool(locked, shards, Options{})
	if err != nil {
		return HitpathCounterRow{}, err
	}
	s := pool.NewSession()
	r := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < hitpathAccesses; i++ {
		r = splitmix64(&r)
		ref, err := pool.Get(s, ids[r%uint64(len(ids))])
		if err != nil {
			return HitpathCounterRow{}, err
		}
		ref.Release()
	}
	s.Flush()
	st := pool.Stats()
	return HitpathCounterRow{
		Path:           name,
		Shards:         shards,
		Accesses:       st.Hits + st.Misses,
		Hits:           st.Hits,
		Fast:           st.HitpathFast,
		Retries:        st.HitpathRetries,
		Fallbacks:      st.HitpathFallbacks,
		BucketLockAcqs: st.BucketLockAcqs,
		FrameLockAcqs:  st.FrameLockAcqs,
	}, nil
}

// hitpathScalePoint hammers one arm with p goroutines of tight resident
// Get loops for the configured duration, GOMAXPROCS pinned to p as in the
// paper's processor sweeps.
func hitpathScalePoint(name string, locked bool, p int, o Options) (HitpathScaleRow, error) {
	pool, ids, err := hitpathPool(locked, 4, o)
	if err != nil {
		return HitpathScaleRow{}, err
	}
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)

	var (
		stop  atomic.Bool
		ops   atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
		wErr  error
	)
	start := time.Now()
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := pool.NewSession()
			defer s.Flush()
			r := uint64(o.Seed)*0x9e3779b97f4a7c15 + uint64(w)<<32 + 1
			n := int64(0)
			for !stop.Load() {
				r = splitmix64(&r)
				ref, err := pool.Get(s, ids[r%uint64(len(ids))])
				if err != nil {
					errMu.Lock()
					if wErr == nil {
						wErr = err
					}
					errMu.Unlock()
					break
				}
				ref.Release()
				n++
			}
			ops.Add(n)
		}(w)
	}
	time.Sleep(o.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if wErr != nil {
		return HitpathScaleRow{}, wErr
	}
	st := pool.Stats()
	total := ops.Load()
	row := HitpathScaleRow{
		Path:           name,
		Procs:          p,
		Ops:            total,
		BucketLockAcqs: st.BucketLockAcqs,
		FrameLockAcqs:  st.FrameLockAcqs,
	}
	if total > 0 && elapsed > 0 {
		row.OpsPerSec = float64(total) / elapsed.Seconds()
		row.NsPerOp = float64(elapsed.Nanoseconds()) * float64(p) / float64(total)
	}
	if st.Hits > 0 {
		row.FastFrac = float64(st.HitpathFast) / float64(st.Hits)
	}
	return row, nil
}

// splitmix64 advances the state and returns the next value of the
// deterministic access stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// JSONHitpath writes the report as the committed-baseline JSON document.
// Only CounterRows are deterministic; scripts/bench_hitpath.sh therefore
// runs this experiment in sim mode, where ScaleRows are absent and the
// document is byte-stable.
func JSONHitpath(w io.Writer, rep *HitpathReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// PrintHitpath renders both sweeps.
func PrintHitpath(w io.Writer, rep *HitpathReport) {
	fmt.Fprintln(w, "Lock-free hit path (E17) — seqlock lookup + pin CAS vs locked lookups")
	fmt.Fprintf(w, "\nHit-path anatomy (%d resident pages in %d frames, %d seeded accesses, 1 goroutine)\n",
		rep.Pages, rep.Frames, hitpathAccesses)
	fmt.Fprintf(w, "  %-11s %7s %9s %9s %9s %8s %8s %10s %10s\n",
		"path", "shards", "accesses", "hits", "fast", "retries", "fallbk", "bucketlk", "framelk")
	for _, r := range rep.CounterRows {
		fmt.Fprintf(w, "  %-11s %7d %9d %9d %9d %8d %8d %10d %10d\n",
			r.Path, r.Shards, r.Accesses, r.Hits, r.Fast, r.Retries, r.Fallbacks,
			r.BucketLockAcqs, r.FrameLockAcqs)
	}
	if len(rep.ScaleRows) == 0 {
		fmt.Fprintln(w, "\n(scaling sweep requires -mode real: it measures wall-clock goroutine throughput)")
		return
	}
	fmt.Fprintln(w, "\nResident-read scaling — ops/s by worker count")
	fmt.Fprintf(w, "  %-11s %6s %12s %14s %10s %8s %10s %10s\n",
		"path", "procs", "ops", "ops/s", "ns/op", "fast", "bucketlk", "framelk")
	for _, r := range rep.ScaleRows {
		fmt.Fprintf(w, "  %-11s %6d %12d %14.0f %10.1f %7.1f%% %10d %10d\n",
			r.Path, r.Procs, r.Ops, r.OpsPerSec, r.NsPerOp, 100*r.FastFrac,
			r.BucketLockAcqs, r.FrameLockAcqs)
	}
}

// CSVHitpath writes both sweeps in long form, counter rows first.
func CSVHitpath(w io.Writer, rep *HitpathReport) error {
	if _, err := fmt.Fprintln(w, "kind,path,shards,procs,accesses,hits,fast,retries,fallbacks,bucket_lock_acqs,frame_lock_acqs,ops,ops_per_sec,ns_per_op,fast_frac"); err != nil {
		return err
	}
	for _, r := range rep.CounterRows {
		if _, err := fmt.Fprintf(w, "counters,%s,%d,,%d,%d,%d,%d,%d,%d,%d,,,,\n",
			r.Path, r.Shards, r.Accesses, r.Hits, r.Fast, r.Retries, r.Fallbacks,
			r.BucketLockAcqs, r.FrameLockAcqs); err != nil {
			return err
		}
	}
	for _, r := range rep.ScaleRows {
		if _, err := fmt.Fprintf(w, "scaling,%s,,%d,,,,,,%d,%d,%d,%.1f,%.2f,%.6f\n",
			r.Path, r.Procs, r.BucketLockAcqs, r.FrameLockAcqs, r.Ops,
			r.OpsPerSec, r.NsPerOp, r.FastFrac); err != nil {
			return err
		}
	}
	return nil
}
