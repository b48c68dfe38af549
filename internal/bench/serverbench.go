package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/server"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/workload"
)

// ---------------------------------------------------------------------------
// Experiment E18 — serving the pool over the wire (DESIGN.md §13): a
// loopback bpserver driven through the binary protocol, answering two
// questions:
//
//   - ledger: one client replays a seeded op stream (GET/PUT/INVALIDATE
//     with a closing FLUSH) synchronously per burst, per (shards ×
//     pipeline-depth) arm, plus one deliberately malformed frame on a
//     second connection. Every number — per-op request counts, per-status
//     response counts, bytes in/out, the pool's hit/miss split — is exact
//     and byte-identical on any machine: the op stream is a fixed
//     function of the seed, frames are fixed-size, and the snapshot is
//     taken at quiescence BEFORE any STATS call (the STATS JSON length is
//     the one nondeterministic frame). This is the committed
//     results/BENCH_server.json baseline, drift-checked by CI: it pins
//     the wire format's byte accounting, the request taxonomy, and that
//     bad frames are counted and contained.
//   - scaling: a RunFleet sweep over worker counts against the same
//     loopback server — wall-clock throughput, real mode only, never
//     committed.

// Server-experiment tuning: a working set that fits the pool so the
// ledger arms measure protocol accounting, not eviction noise.
const (
	ServerFrames = 256
	ServerPages  = 192
	serverOps    = 4096
)

// ServerLedgerRow is one (shards, pipeline) arm of the deterministic
// ledger. All fields are exact post-quiescence totals.
type ServerLedgerRow struct {
	Shards    int              `json:"shards"`
	Pipeline  int              `json:"pipeline"`
	Ops       int64            `json:"ops"`
	Requests  map[string]int64 `json:"requests"`  // by op name
	Responses map[string]int64 `json:"responses"` // by status name
	BytesIn   int64            `json:"bytes_in"`
	BytesOut  int64            `json:"bytes_out"`
	Hits      int64            `json:"hits"`
	Misses    int64            `json:"misses"`
	Flushed   int64            `json:"flushed"`    // pages written by the closing FLUSH
	BadFrames int64            `json:"bad_frames"` // from the malformed-frame probe
}

// ServerScaleRow is one (workers) point of the real-mode fleet sweep.
type ServerScaleRow struct {
	Workers    int     `json:"workers"`
	Txns       int64   `json:"txns"`
	TPS        float64 `json:"tps"`
	Reads      int64   `json:"reads"`
	Writes     int64   `json:"writes"`
	Overloaded int64   `json:"overloaded"`
	BurstP99Ns float64 `json:"burst_p99_ns"`
}

// ServerReport is the full E18 result; LedgerRows is always present (and
// is the committed baseline), ScaleRows only in real mode.
type ServerReport struct {
	Experiment string            `json:"experiment"`
	Mode       string            `json:"mode"`
	Seed       int64             `json:"seed"`
	Frames     int               `json:"frames"`
	Pages      int               `json:"pages"`
	LedgerRows []ServerLedgerRow `json:"ledger_rows"`
	ScaleRows  []ServerScaleRow  `json:"scale_rows,omitempty"`
}

// ServerExperiment runs E18. The ledger always runs; the fleet sweep
// runs only in real mode, over worker counts 1,2,4,… capped at procs.
func ServerExperiment(procs int, o Options) (*ServerReport, error) {
	o = o.withDefaults()
	rep := &ServerReport{
		Experiment: "server",
		Mode:       string(o.Mode),
		Seed:       o.Seed,
		Frames:     ServerFrames,
		Pages:      ServerPages,
	}
	for _, shards := range []int{1, 2} {
		for _, pipeline := range []int{1, 16} {
			row, err := serverLedgerArm(shards, pipeline, o.Seed)
			if err != nil {
				return nil, fmt.Errorf("server ledger shards=%d pipeline=%d: %w", shards, pipeline, err)
			}
			rep.LedgerRows = append(rep.LedgerRows, row)
		}
	}
	if o.Mode == ModeReal {
		wl := workload.Workload(nil)
		if len(o.Workloads) > 0 {
			wl = o.Workloads[0]
		} else {
			var err error
			wl, err = workload.ByName("tpcc")
			if err != nil {
				return nil, err
			}
		}
		for w := 1; w <= procs; w *= 2 {
			row, err := serverScalePoint(wl, w, o)
			if err != nil {
				return nil, fmt.Errorf("server scaling workers=%d: %w", w, err)
			}
			rep.ScaleRows = append(rep.ScaleRows, row)
		}
	}
	return rep, nil
}

// serverPool builds one arm's pool: memory device, LRU, defaults
// elsewhere — the arm measures the protocol layer, not the policy.
func serverPool(shards int) *buffer.Pool {
	return buffer.New(buffer.Config{
		Frames:        ServerFrames,
		Shards:        shards,
		PolicyFactory: replacer.Factories()["lru"],
		Device:        storage.NewMemDevice(),
	})
}

// serverLedgerArm drives one (shards, pipeline) arm: the seeded op
// stream through one client, the malformed-frame probe through another,
// then a quiescent snapshot of the server and pool counters.
func serverLedgerArm(shards, pipeline int, seed int64) (ServerLedgerRow, error) {
	pool := serverPool(shards)
	srv, err := server.New(server.Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		return ServerLedgerRow{}, err
	}
	defer srv.Close()

	c, err := server.Dial(srv.Addr())
	if err != nil {
		return ServerLedgerRow{}, err
	}
	defer c.Close()

	// The op stream: a fixed function of the seed. 60% GET, 30% PUT,
	// 10% INVALIDATE over the working set, pipelined at the arm's depth.
	r := uint64(seed)*0x9e3779b97f4a7c15 + 1
	var ops []server.Op
	pages := make([]page.Page, pipeline)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		results, err := c.Do(ops)
		ops = ops[:0]
		if err != nil {
			return err
		}
		for i := range results {
			if results[i].Err != nil {
				return fmt.Errorf("op %d: %w", i, results[i].Err)
			}
		}
		return nil
	}
	for i := 0; i < serverOps; i++ {
		r = splitmix64(&r)
		id := page.NewPageID(1, r%ServerPages)
		r = splitmix64(&r)
		switch {
		case r%10 < 6:
			ops = append(ops, server.Op{Code: server.OpGet, Page: id})
		case r%10 < 9:
			pg := &pages[len(ops)]
			pg.Stamp(id)
			ops = append(ops, server.Op{Code: server.OpPut, Page: id, Data: pg.Data[:]})
		default:
			ops = append(ops, server.Op{Code: server.OpInvalidate, Page: id})
		}
		if len(ops) >= pipeline {
			if err := flush(); err != nil {
				return ServerLedgerRow{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return ServerLedgerRow{}, err
	}
	flushed, err := c.Flush()
	if err != nil {
		return ServerLedgerRow{}, err
	}

	// The malformed-frame probe: a length word below the header minimum.
	// The server must count it and retire only that connection.
	bad, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		return ServerLedgerRow{}, err
	}
	if _, err := bad.Write([]byte{0x00, 0x00, 0x00, 0x03}); err != nil {
		bad.Close()
		return ServerLedgerRow{}, err
	}
	bad.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().BadFrames == 0 {
		if time.Now().After(deadline) {
			return ServerLedgerRow{}, fmt.Errorf("malformed frame never counted")
		}
		time.Sleep(time.Millisecond)
	}

	// Quiescent snapshot, BEFORE any STATS call: the STATS response is
	// the one frame whose length varies, and it must stay out of the
	// committed byte ledger.
	st := srv.Stats()
	pst := pool.Stats()
	row := ServerLedgerRow{
		Shards:    shards,
		Pipeline:  pipeline,
		Ops:       serverOps,
		Requests:  st.Requests,
		Responses: st.Responses,
		BytesIn:   st.BytesIn,
		BytesOut:  st.BytesOut,
		Hits:      pst.Hits,
		Misses:    pst.Misses,
		Flushed:   int64(flushed),
		BadFrames: st.BadFrames,
	}
	if err := pool.Close(); err != nil {
		return ServerLedgerRow{}, err
	}
	return row, nil
}

// serverScalePoint runs one fleet point against a fresh loopback server.
func serverScalePoint(wl workload.Workload, workers int, o Options) (ServerScaleRow, error) {
	pool := serverPool(2)
	srv, err := server.New(server.Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		return ServerScaleRow{}, err
	}
	res, err := server.RunFleet(server.FleetConfig{
		Addr:          srv.Addr(),
		Workload:      wl,
		Workers:       workers,
		Duration:      o.Duration,
		Seed:          o.Seed,
		PipelineDepth: 8,
	})
	if err != nil {
		srv.Close()
		return ServerScaleRow{}, err
	}
	if err := srv.Drain(30 * time.Second); err != nil {
		return ServerScaleRow{}, err
	}
	row := ServerScaleRow{
		Workers:    workers,
		Txns:       res.Counters.Txns,
		Reads:      res.Counters.Reads,
		Writes:     res.Counters.Writes,
		Overloaded: res.Counters.Overloaded,
	}
	if res.Elapsed > 0 {
		row.TPS = float64(res.Counters.Txns) / res.Elapsed.Seconds()
	}
	if res.Latency.Count() > 0 {
		row.BurstP99Ns = float64(res.Latency.Quantile(0.99).Nanoseconds())
	}
	return row, nil
}

// JSONServer writes the report as the committed-baseline JSON document.
// Only LedgerRows are deterministic; scripts/bench_server.sh therefore
// runs in sim mode, where ScaleRows are absent and the document is
// byte-stable.
func JSONServer(w io.Writer, rep *ServerReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// PrintServer renders both sweeps.
func PrintServer(w io.Writer, rep *ServerReport) {
	fmt.Fprintln(w, "Serving over the wire (E18) — loopback bpserver protocol ledger")
	fmt.Fprintf(w, "\nByte/op ledger (%d seeded ops over %d pages in %d frames, 1 client)\n",
		serverOps, rep.Pages, rep.Frames)
	fmt.Fprintf(w, "  %6s %9s %7s %7s %7s %7s %10s %12s %8s %8s %8s\n",
		"shards", "pipeline", "gets", "puts", "inval", "flush", "bytes_in", "bytes_out", "hits", "misses", "badfrm")
	for _, r := range rep.LedgerRows {
		fmt.Fprintf(w, "  %6d %9d %7d %7d %7d %7d %10d %12d %8d %8d %8d\n",
			r.Shards, r.Pipeline,
			r.Requests["get"], r.Requests["put"], r.Requests["invalidate"], r.Requests["flush"],
			r.BytesIn, r.BytesOut, r.Hits, r.Misses, r.BadFrames)
	}
	if len(rep.ScaleRows) == 0 {
		fmt.Fprintln(w, "\n(fleet sweep requires -mode real: it measures wall-clock throughput over TCP)")
		return
	}
	fmt.Fprintln(w, "\nRemote fleet scaling — transactions/s by worker count")
	fmt.Fprintf(w, "  %7s %10s %12s %10s %10s %8s %12s\n",
		"workers", "txns", "tps", "reads", "writes", "shed", "burst p99")
	for _, r := range rep.ScaleRows {
		fmt.Fprintf(w, "  %7d %10d %12.0f %10d %10d %8d %12s\n",
			r.Workers, r.Txns, r.TPS, r.Reads, r.Writes, r.Overloaded,
			time.Duration(r.BurstP99Ns).Round(time.Microsecond))
	}
}

// CSVServer writes both sweeps in long form, ledger rows first.
func CSVServer(w io.Writer, rep *ServerReport) error {
	if _, err := fmt.Fprintln(w, "kind,shards,pipeline,workers,gets,puts,invalidates,flushes,bytes_in,bytes_out,hits,misses,bad_frames,txns,tps,reads,writes,overloaded"); err != nil {
		return err
	}
	for _, r := range rep.LedgerRows {
		if _, err := fmt.Fprintf(w, "ledger,%d,%d,,%d,%d,%d,%d,%d,%d,%d,%d,%d,,,,,\n",
			r.Shards, r.Pipeline,
			r.Requests["get"], r.Requests["put"], r.Requests["invalidate"], r.Requests["flush"],
			r.BytesIn, r.BytesOut, r.Hits, r.Misses, r.BadFrames); err != nil {
			return err
		}
	}
	for _, r := range rep.ScaleRows {
		if _, err := fmt.Fprintf(w, "scaling,,,%d,,,,,,,,,,%d,%.1f,%d,%d,%d\n",
			r.Workers, r.Txns, r.TPS, r.Reads, r.Writes, r.Overloaded); err != nil {
			return err
		}
	}
	return nil
}
