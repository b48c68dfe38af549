// Command bpbench regenerates every table and figure of the BP-Wrapper
// paper's evaluation (ICDE 2009). By default each experiment runs on the
// deterministic multiprocessor simulator (see DESIGN.md for why); pass
// -mode real to run on goroutines against the real buffer pool instead.
//
// Usage:
//
//	bpbench -exp fig2             # Figure 2: lock time vs batch size
//	bpbench -exp fig6             # Figure 6: scalability, 1..16 processors
//	bpbench -exp fig7             # Figure 7: scalability, 1..8 processors
//	bpbench -exp tab2             # Table II: queue-size sensitivity
//	bpbench -exp tab3             # Table III: batch-threshold sensitivity
//	bpbench -exp fig8             # Figure 8: hit ratio & throughput vs buffer size
//	bpbench -exp ablation-queue   # shared vs private FIFO queues (sim mode only)
//	bpbench -exp ablation-policy  # LIRS/MQ under the wrapper
//	bpbench -exp combine          # baseline vs batched vs flat-combined commits
//	bpbench -exp contention       # lock anatomy: acquisitions/blocking/wait/hold
//	bpbench -exp faults           # throughput under injected storage faults
//	bpbench -exp tracing          # E20: per-phase latency decomposition via reqtrace
//	bpbench -exp all              # everything above, in order
//
// The combine and contention experiments additionally accept -format json,
// the shapes committed as results/BENCH_combine.json and
// results/BENCH_contention.json (see scripts/bench_combine.sh and
// scripts/bench_contention.sh).
//
// With -obs addr the process serves /metrics (Prometheus text),
// /debug/vars (expvar JSON), /debug/events (flight recorder) and
// /debug/pprof while experiments run; in -mode real the pool of the point
// currently measured is registered live, so `bpstat -addr addr` renders
// its per-shard activity.
//
// The faults experiment (also reachable as -faults) measures batched vs
// unbatched wrappers against a degraded device — injected transient
// errors, latency spikes, and corruption, healed by the retry/checksum
// stack — and always runs on real goroutines.
//
// The shard experiment (E14) sweeps the hash-partitioned pool: a
// deterministic hit-ratio sweep (the history-fragmentation cost, committed
// as results/BENCH_shard.json via scripts/bench_shard.sh) always runs,
// and with -mode real a throughput sweep of shards × {pg2Q, pgBat,
// pgBatFC} measures whether batching still pays as sharding divides the
// policy lock.
//
// The server experiment (E18) drives a loopback bpserver through the
// binary wire protocol: a deterministic byte/op ledger per (shards ×
// pipeline) arm — committed as results/BENCH_server.json via
// scripts/bench_server.sh — plus, with -mode real, a remote-fleet
// throughput sweep over worker counts.
//
// The chaos experiment (E16) scripts four device-fault campaigns —
// brownout, harddown, quarantine pressure, recovery — against the
// per-shard breaker/deadline/admission machinery on a deterministic tick
// clock, and reports each campaign's event ledger (committed as
// results/BENCH_chaos.json via scripts/bench_chaos.sh).
//
// The hitpath experiment (E17) A/Bs the lock-free resident-read path
// (seqlock bucket probe + pin CAS, DESIGN.md §12) against the locked
// lookup path: a deterministic single-goroutine counter sweep proving the
// optimistic path serves 100%-resident reads with zero lock acquisitions
// (committed as results/BENCH_hitpath.json via scripts/bench_hitpath.sh),
// plus, with -mode real, a goroutine-scaling sweep up to -procs workers.
//
// The tuner experiment (E19) closes the observation→control loop
// (internal/control, DESIGN.md §14) end to end: phase A replays E14's
// scan-mix trace against a deliberately over-sharded SEQ pool and lets the
// controller reshard down until the fragmentation gap closes, reporting
// what fraction of the sharding-induced hit-ratio loss it recovered;
// phase B replays a loop trace against a misconfigured 2Q pool and lets
// the ghost scorer hot-swap the policy. Deterministic, committed as
// results/BENCH_tuner.json via scripts/bench_tuner.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bpwrapper"
	"bpwrapper/internal/bench"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig2, fig6, fig7, tab2, tab3, fig8, ablation-queue, ablation-policy, distributed, adaptive, combine, contention, faults, shard, chaos, hitpath, server, tuner, tracing, all")
		faults   = flag.Bool("faults", false, "shorthand for -exp faults")
		mode     = flag.String("mode", "sim", "execution mode: sim (deterministic multiprocessor simulator) or real (goroutines)")
		duration = flag.Duration("duration", 500*time.Millisecond, "measured time per point (virtual in sim mode, wall in real mode)")
		seed     = flag.Int64("seed", 1, "workload seed")
		wlNames  = flag.String("workloads", "tpcw,tpcc,tablescan", "comma-separated workloads")
		procs    = flag.Int("procs", 16, "processor count for single-point experiments (fig2, tab2, tab3, ablations)")
		format   = flag.String("format", "table", "output format: table (paper-shaped), csv, or json (combine/contention/shard/chaos)")
		obsAddr  = flag.String("obs", "", "serve /metrics, /debug/vars, /debug/events and pprof on this address while experiments run")
	)
	flag.Parse()
	if *faults {
		*exp = "faults"
	}

	opts := bench.Options{
		Mode:     bench.Mode(*mode),
		Duration: *duration,
		Seed:     *seed,
	}
	if *obsAddr != "" {
		reg := bpwrapper.NewObsRegistry()
		srv, err := bpwrapper.NewObsServer(*obsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		opts.Obs = reg
		fmt.Fprintf(os.Stderr, "bpbench: obs endpoint on http://%s/metrics\n", srv.Addr())
	}
	for _, name := range strings.Split(*wlNames, ",") {
		wl, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		opts.Workloads = append(opts.Workloads, wl)
	}

	csvOut := *format == "csv"
	jsonOut := *format == "json"
	run := func(name string) {
		start := time.Now()
		switch name {
		case "fig2":
			rows, err := bench.Fig2BatchSize(*procs, nil, opts)
			check(err)
			if csvOut {
				check(bench.CSVFig2(os.Stdout, rows))
			} else {
				bench.PrintFig2(os.Stdout, rows)
			}
		case "fig6":
			rows, err := bench.Scalability(nil, []int{1, 2, 4, 8, 16}, opts)
			check(err)
			if csvOut {
				check(bench.CSVScalability(os.Stdout, rows))
			} else {
				bench.PrintScalability(os.Stdout, "Figure 6 — scalability on a 16-processor machine", rows)
			}
		case "fig7":
			rows, err := bench.Scalability(nil, []int{1, 2, 4, 6, 8}, opts)
			check(err)
			if csvOut {
				check(bench.CSVScalability(os.Stdout, rows))
			} else {
				bench.PrintScalability(os.Stdout, "Figure 7 — scalability on an 8-core machine", rows)
			}
		case "tab2":
			rows, err := bench.TableIIQueueSize(*procs, nil, opts)
			check(err)
			if csvOut {
				check(bench.CSVTableII(os.Stdout, rows))
			} else {
				bench.PrintTableII(os.Stdout, rows)
			}
		case "tab3":
			rows, err := bench.TableIIIThreshold(*procs, nil, opts)
			check(err)
			if csvOut {
				check(bench.CSVTableIII(os.Stdout, rows))
			} else {
				bench.PrintTableIII(os.Stdout, rows)
			}
		case "fig8":
			fig8Opts := opts
			// Figure 8 uses DBT-1 and DBT-2 only, at 8 processors.
			fig8Opts.Workloads = nil
			for _, wl := range opts.Workloads {
				if wl.Name() != "tablescan" {
					fig8Opts.Workloads = append(fig8Opts.Workloads, wl)
				}
			}
			if len(fig8Opts.Workloads) == 0 {
				fig8Opts.Workloads = opts.Workloads
			}
			rows, err := bench.Fig8Overall(8, nil, storage.SimDiskConfig{}, fig8Opts)
			check(err)
			if csvOut {
				check(bench.CSVFig8(os.Stdout, rows))
			} else {
				bench.PrintFig8(os.Stdout, rows)
			}
		case "ablation-queue":
			rows, err := bench.AblationSharedQueue(*procs, opts)
			check(err)
			if csvOut {
				check(bench.CSVSharedQueue(os.Stdout, rows))
			} else {
				bench.PrintSharedQueue(os.Stdout, rows)
			}
		case "ablation-policy":
			rows, err := bench.AblationPolicies(*procs, nil, opts)
			check(err)
			if csvOut {
				check(bench.CSVPolicies(os.Stdout, rows))
			} else {
				bench.PrintPolicies(os.Stdout, rows)
			}
		case "adaptive":
			rows, err := bench.AblationAdaptiveThreshold(*procs, nil, opts)
			check(err)
			if csvOut {
				check(bench.CSVAdaptive(os.Stdout, rows))
			} else {
				bench.PrintAdaptive(os.Stdout, rows)
			}
		case "distributed":
			rows, err := bench.AblationDistributedLocks(*procs, nil, opts)
			check(err)
			hrRows, err := bench.AblationPartitionHitRatio(nil, nil, 0, *seed)
			check(err)
			if csvOut {
				check(bench.CSVDistributed(os.Stdout, rows))
				check(bench.CSVPartitionHitRatio(os.Stdout, hrRows))
			} else {
				bench.PrintDistributed(os.Stdout, rows)
				fmt.Println()
				bench.PrintPartitionHitRatio(os.Stdout, hrRows)
			}
		case "combine":
			rows, err := bench.CombineExperiment(nil, opts)
			check(err)
			switch {
			case *format == "json":
				check(bench.JSONCombine(os.Stdout, opts, rows))
			case csvOut:
				check(bench.CSVCombine(os.Stdout, rows))
			default:
				bench.PrintCombine(os.Stdout, rows)
			}
		case "contention":
			rows, err := bench.ContentionExperiment(nil, opts)
			check(err)
			switch {
			case *format == "json":
				check(bench.JSONContention(os.Stdout, opts, rows))
			case csvOut:
				check(bench.CSVContention(os.Stdout, rows))
			default:
				bench.PrintContention(os.Stdout, rows)
			}
		case "faults":
			rows, err := bench.FaultTolerance(*procs, opts)
			check(err)
			if csvOut {
				check(bench.CSVFaults(os.Stdout, rows))
			} else {
				bench.PrintFaults(os.Stdout, rows)
			}
		case "shard":
			rep, err := bench.ShardExperiment(nil, *procs, opts)
			check(err)
			switch {
			case *format == "json":
				check(bench.JSONShard(os.Stdout, rep))
			case csvOut:
				check(bench.CSVShard(os.Stdout, rep))
			default:
				bench.PrintShard(os.Stdout, rep)
			}
		case "hitpath":
			rep, err := bench.HitpathExperiment(*procs, opts)
			check(err)
			switch {
			case *format == "json":
				check(bench.JSONHitpath(os.Stdout, rep))
			case csvOut:
				check(bench.CSVHitpath(os.Stdout, rep))
			default:
				bench.PrintHitpath(os.Stdout, rep)
			}
		case "server":
			rep, err := bench.ServerExperiment(*procs, opts)
			check(err)
			switch {
			case *format == "json":
				check(bench.JSONServer(os.Stdout, rep))
			case csvOut:
				check(bench.CSVServer(os.Stdout, rep))
			default:
				bench.PrintServer(os.Stdout, rep)
			}
		case "tuner":
			rep, err := bench.TunerExperiment(opts)
			check(err)
			switch {
			case *format == "json":
				check(bench.JSONTuner(os.Stdout, rep))
			case csvOut:
				check(bench.CSVTuner(os.Stdout, rep))
			default:
				bench.PrintTuner(os.Stdout, rep)
			}
		case "tracing":
			rep, err := bench.TracingExperiment(opts)
			check(err)
			switch {
			case *format == "json":
				check(bench.JSONTracing(os.Stdout, rep))
			case csvOut:
				check(bench.CSVTracing(os.Stdout, rep))
			default:
				bench.PrintTracing(os.Stdout, rep)
			}
		case "chaos":
			rep, err := bench.ChaosExperiment(opts)
			check(err)
			switch {
			case *format == "json":
				check(bench.JSONChaos(os.Stdout, rep))
			case csvOut:
				check(bench.CSVChaos(os.Stdout, rep))
			default:
				bench.PrintChaos(os.Stdout, rep)
			}
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
		if !csvOut && !jsonOut {
			fmt.Printf("\n(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}

	if *exp == "all" {
		for _, name := range []string{"fig2", "fig6", "fig7", "tab2", "tab3", "fig8", "ablation-queue", "ablation-policy", "distributed", "adaptive", "combine", "contention"} {
			if name == "ablation-queue" && opts.Mode == bench.ModeReal {
				continue // the shared queue exists only in the simulator
			}
			run(name)
		}
		return
	}
	run(*exp)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpbench:", err)
	os.Exit(1)
}
