// Package bpwrapper is a Go implementation of BP-Wrapper, the framework of
// Ding, Jiang & Zhang, "BP-Wrapper: A System Framework Making Any
// Replacement Algorithms (Almost) Lock Contention Free" (ICDE 2009),
// together with the complete substrate the paper's evaluation needs: eleven
// buffer replacement algorithms, a PostgreSQL-style buffer-pool manager, a
// simulated storage layer, TPC-W-like / TPC-C-like / TableScan workload
// generators, a transaction driver, a deterministic multiprocessor
// simulator, and the experiment harness that regenerates every table and
// figure of the paper.
//
// # The problem and the technique
//
// Advanced replacement algorithms (2Q, LIRS, MQ, ARC, ...) must update a
// shared data structure on every buffer access, under one global lock. At
// high concurrency that lock throttles the whole DBMS, which is why systems
// like PostgreSQL retreated to clock approximations that trade hit ratio
// for lock-free hits. BP-Wrapper removes the trade-off with two
// algorithm-agnostic techniques:
//
//   - Batching: each backend records hits in a small private FIFO queue and
//     commits them in one lock-holding period — opportunistically with
//     TryLock once a threshold is reached, forcibly only when the queue
//     fills.
//   - Prefetching: immediately before requesting the lock, the data the
//     critical section will touch is read lock-free, so the processor cache
//     is warm while the lock is held.
//
// Beyond the paper, WrapperConfig.FlatCombining replaces the
// TryLock-or-block commit protocol with flat combining: at the batch
// threshold a session publishes its batch in a per-session padded slot and
// tries the lock once — the winner applies every session's published batch;
// losers swap to a spare buffer and keep recording without ever blocking.
// See examples/flatcombine and the bpbench combine experiment.
//
// # Quick start
//
//	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
//		Frames:        1024,
//		PolicyFactory: bpwrapper.PolicyFactories()["2q"],
//		Wrapper:       bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
//		Device:        bpwrapper.NewMemDevice(),
//	})
//	sess := pool.NewSession() // one per worker goroutine
//	ref, err := pool.Get(sess, bpwrapper.NewPageID(1, 0))
//	if err != nil { ... }
//	_ = ref.Data()
//	ref.Release()
//
// See the examples directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology and results.
package bpwrapper

import (
	"bpwrapper/internal/buffer"
	"bpwrapper/internal/control"
	"bpwrapper/internal/core"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/workload"
)

// ---------------------------------------------------------------------------
// Pages

// PageID identifies a disk page: a table (relation) number plus a block
// number within the table.
type PageID = page.PageID

// BufferTag identifies one cached copy of a page (page id + frame
// generation); BP-Wrapper's deferred hit records carry it so stale records
// can be discarded at commit time.
type BufferTag = page.BufferTag

// Page is an 8 KB page image.
type Page = page.Page

// NewPageID packs a table number (1..2^20-1) and block number (< 2^44)
// into a PageID.
func NewPageID(table uint32, block uint64) PageID { return page.NewPageID(table, block) }

// ---------------------------------------------------------------------------
// Replacement policies

// NewPolicy constructs a replacement policy by name, for standalone use
// (NewWrapper, ReplayTrace). Available names: "lru", "fifo", "lfu",
// "lru2", "clock", "gclock", "2q", "lirs", "mq", "arc", "car",
// "clockpro", "seq".
func NewPolicy(name string, capacity int) (replacer.Policy, bool) {
	return replacer.New(name, capacity)
}

// PolicyNames lists the available algorithm names in sorted order.
func PolicyNames() []string { return replacer.Names() }

// NewTwoQ constructs the 2Q policy the paper evaluates BP-Wrapper with.
var NewTwoQ = replacer.NewTwoQ

// PolicyFactories returns the named policy constructors ("lru", "2q",
// "lirs", ...), each usable as a PoolConfig.PolicyFactory.
func PolicyFactories() map[string]replacer.Factory { return replacer.Factories() }

// ---------------------------------------------------------------------------
// BP-Wrapper core

// WrapperConfig selects batching/prefetching and tunes the FIFO queue.
type WrapperConfig = core.Config

// NewWrapper builds a standalone Wrapper around a policy. Most users want
// NewPool instead, which wires the wrapper into a buffer manager.
func NewWrapper(p replacer.Policy, cfg WrapperConfig) *core.Wrapper { return core.New(p, cfg) }

// ---------------------------------------------------------------------------
// Buffer pool

// Pool is the buffer-pool manager: fixed frames, a bucketed page table, and
// a replacement policy reached through the BP-Wrapper core. With
// PoolConfig.Shards > 1 the pool is hash-partitioned into shards, each with
// its own frames, page table, quarantine, and BP-Wrapper + policy instance
// (per-shard policy lock and batching queues); Shards: 1 — the default —
// is the paper's single-policy configuration. Sharding trades the
// replacement algorithm's unified access history (the paper's Section V-A
// objection to distributed locks) for contention relief; the bpbench
// "shard" experiment (E14) measures both sides.
type Pool = buffer.Pool

// PoolConfig assembles a Pool. PolicyFactory is required: the pool calls
// it once per shard, with that shard's frame count.
type PoolConfig = buffer.Config

// PoolSession is a per-backend handle for Pool.Get/GetWrite, carrying one
// batching Session per shard; obtain one per worker goroutine with
// Pool.NewSession and do not share it between goroutines.
type PoolSession = buffer.Session

// BackgroundWriter periodically writes dirty pages back to the device and
// drains the pool's dirty quarantine, backing off when the device is down;
// start one with Pool.StartBackgroundWriter.
type BackgroundWriter = buffer.BackgroundWriter

// BackgroundWriterConfig tunes a BackgroundWriter.
type BackgroundWriterConfig = buffer.BackgroundWriterConfig

// NewPool builds a buffer pool.
func NewPool(cfg PoolConfig) *Pool { return buffer.New(cfg) }

// Errors a pool access can return besides device errors; classify them
// with errors.Is.
var (
	// ErrNoUnpinnedBuffers: every candidate victim was pinned or
	// otherwise unclaimable.
	ErrNoUnpinnedBuffers = buffer.ErrNoUnpinnedBuffers

	// ErrQuarantineFull: a dirty victim could not be parked for
	// write-back; it also matches ErrNoUnpinnedBuffers.
	ErrQuarantineFull = buffer.ErrQuarantineFull

	// ErrOverloaded: the shard's health ladder shed the miss.
	ErrOverloaded = buffer.ErrOverloaded
)

// ---------------------------------------------------------------------------
// Self-tuning controller

// Controller closes the observation→actuation loop over a Pool: a
// background goroutine consumes the pool's sampled access stream and
// windowed stats deltas, and actuates batch-threshold retuning,
// background write-back rate, replacement-policy hot-swap (scored by
// shadow ghost caches), and online resharding. See DESIGN.md §14 and the
// bpbench "tuner" experiment (E19).
type Controller = control.Controller

// ControllerConfig tunes a Controller; the zero value of every optional
// field picks the documented default. Pool is required.
type ControllerConfig = control.Config

// NewController builds a Controller over a pool. Call Start to run it on
// its interval ticker and Stop to halt it; Step may instead be driven
// manually for deterministic replay.
func NewController(cfg ControllerConfig) *Controller { return control.New(cfg) }

// ---------------------------------------------------------------------------
// Storage devices

// Device is the storage interface beneath the pool.
type Device = storage.Device

// SimDiskConfig tunes the latency-simulating disk.
type SimDiskConfig = storage.SimDiskConfig

// NewMemDevice returns an in-memory page store whose unwritten pages read
// back as a deterministic per-page pattern.
func NewMemDevice() *storage.MemDevice { return storage.NewMemDevice() }

// NewSimDisk wraps a device with per-operation latency and bounded
// parallelism.
func NewSimDisk(backing Device, cfg SimDiskConfig) *storage.SimDisk {
	return storage.NewSimDisk(backing, cfg)
}

// ---------------------------------------------------------------------------
// Fault tolerance

// Error taxonomy of the fault-tolerance stack; classify device failures
// with errors.Is.
var (
	// ErrTransient marks failures worth retrying (a flaky bus, a
	// momentary controller error).
	ErrTransient = storage.ErrTransient

	// ErrPermanent marks failures retrying cannot fix (a dead sector).
	ErrPermanent = storage.ErrPermanent

	// ErrCorruptPage marks a page whose bytes do not match the checksum
	// recorded at write time (torn write, bit rot).
	ErrCorruptPage = storage.ErrCorruptPage

	// ErrInvalidPage marks an operation naming the invalid PageID — a
	// caller bug, not a device failure.
	ErrInvalidPage = storage.ErrInvalidPage
)

// FaultConfig tunes a FaultDevice's probabilistic injection.
type FaultConfig = storage.FaultConfig

// RetryConfig tunes a RetryDevice.
type RetryConfig = storage.RetryConfig

// NewFaultDevice wraps a device with deterministic, seedable fault
// injection (transient or permanent errors, latency spikes, page
// corruption). Compose the production stack as
// NewRetryDevice(NewChecksumDevice(device), cfg).
func NewFaultDevice(backing Device, cfg FaultConfig) *storage.FaultDevice {
	return storage.NewFaultDevice(backing, cfg)
}

// NewRetryDevice wraps a device with bounded exponential backoff and
// jitter for retryable failures.
func NewRetryDevice(backing Device, cfg RetryConfig) *storage.RetryDevice {
	return storage.NewRetryDevice(backing, cfg)
}

// NewChecksumDevice wraps a device with end-to-end checksum verification:
// it stamps a checksum on every write and surfaces torn or corrupted pages
// as ErrCorruptPage on read.
func NewChecksumDevice(backing Device) *storage.ChecksumDevice {
	return storage.NewChecksumDevice(backing)
}

// ---------------------------------------------------------------------------
// Observability
//
// The obs layer exposes a pool's full metric tree — per-shard lock
// wait/hold histograms, batch-size and combiner-run distributions, access
// counters, quarantine depth, flight-recorder pressure, device counters —
// as Prometheus text (/metrics) and expvar-style JSON (/debug/vars), plus
// the flight-recorder dump (/debug/events) and the standard pprof
// handlers. Enable the per-shard flight recorder with
// PoolConfig.RecorderSize; register a pool with Pool.RegisterObs.
//
//	reg := bpwrapper.NewObsRegistry()
//	pool.RegisterObs(reg)
//	srv, _ := bpwrapper.NewObsServer(":6060", reg)
//	defer srv.Close()

// Recorder is the lock-free flight recorder of commit-path events.
type Recorder = obs.Recorder

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *obs.Registry { return obs.NewRegistry() }

// NewObsServer binds addr (":0" picks a free port) and serves the registry
// over HTTP in the background.
func NewObsServer(addr string, reg *obs.Registry) (*obs.Server, error) {
	return obs.NewServer(addr, reg)
}

// NewRecorder returns a flight recorder holding the newest size events.
func NewRecorder(size int) *Recorder { return obs.NewRecorder(size) }

// TraceConfig enables request tracing (PoolConfig.Trace): per-request
// phase spans (bucket probe, pin, lock wait, combiner handoff, policy op,
// device I/O, quarantine) retained in lock-free rings — head-sampled every
// SampleEvery requests, with requests that cross SLO kept unconditionally
// in a tail ring. Pool.RegisterObs serves them at /debug/traces.
type TraceConfig = reqtrace.Config

// ---------------------------------------------------------------------------
// Workloads

// Workload generates page-access streams; Access is one page touch.
type (
	Workload = workload.Workload
	Stream   = workload.Stream
	Access   = workload.Access
)

// Workload configurations.
type (
	TPCCConfig      = workload.TPCCConfig
	TableScanConfig = workload.TableScanConfig
	SyntheticConfig = workload.SyntheticConfig
	YCSBConfig      = workload.YCSBConfig
)

// Workload constructors.
var (
	NewTPCC      = workload.NewTPCC
	NewTableScan = workload.NewTableScan
	NewZipf      = workload.NewZipf
	NewYCSB      = workload.NewYCSB
)

// WorkloadByName resolves a workload by name ("tpcw", "tpcc", "tablescan",
// "zipf", "uniform", "hotspot", "loop", "ycsb-a".."ycsb-f") at its default
// scale.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// ---------------------------------------------------------------------------
// Traces

// RecordTrace captures a deterministic interleaved trace from a workload.
func RecordTrace(wl Workload, workers, txnsPerWorker int, seed int64) *trace.Trace {
	return trace.Record(wl, workers, txnsPerWorker, seed)
}

// ReplayTrace drives a policy with a trace and returns hit statistics.
func ReplayTrace(p replacer.Policy, t *trace.Trace) trace.Result { return trace.Replay(p, t) }
