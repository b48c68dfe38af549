// Command wallbench is the repository's wall-clock benchmark. It runs the
// page server's default configuration (see stack) on one named workload
// with two closed-loop workers, checks every page the workers read and the
// device contents after shutdown, and prints the metrics as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"ops_per_s": {"value": ..., "unit": "ops/s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
// With --trace 1 the same untraced run is followed by a traced run, in
// which timing decorators around the policy and the device record spans,
// and the metrics are the per-layer ones. A JSON report line before the
// result records the host, the sizes, the sample counts and the checks.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash wallbench/run.sh --workload hotspot-write --seed 3 --seconds 30 --trace 1
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options configure one run. The command line sets the first four through
// flags; the rest are fixed for the benchmark, and the package test
// shrinks them for short runs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	setups       int           // stack builds timed for setup_s (their median is reported)
	warmup       time.Duration // untimed run before each window
	perWorker    int           // accesses in each worker's replayed trace
	subWindow    time.Duration // rates, CPU per op and percentiles are medians over sub-windows
	spanCap      int           // span log capacity of the traced run
	traceSeconds float64       // longest traced window
	spansDir     string        // where the traced run writes its span log
}

func parseFlags(args []string) (options, error) {
	o := options{
		setups:       7,
		warmup:       time.Second,
		perWorker:    1 << 21,
		subWindow:    500 * time.Millisecond,
		spanCap:      1 << 21,
		traceSeconds: 3,
		spansDir:     filepath.Join(".bench_build", "wallbench", "spans"),
	}
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "cached-tpcw, hotspot-write or wire-tpcw")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated access traces")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *traceFlag != 0
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	res, err := run(o, out)
	if err == nil {
		err = writeLine(out, res)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: what was run, where, and how much
// evidence stands behind each figure.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Host       host               `json:"host"`
	Frames     int                `json:"frames"`
	Pages      int                `json:"pages"`
	TraceLen   int                `json:"trace_accesses_per_worker"`
	Workers    int                `json:"workers"`
	SetupRuns  int                `json:"setup_runs"`
	WindowS    float64            `json:"window_s"`
	TxnSamples uint64             `json:"txn_latency_samples"`
	SubWindows []subFigures       `json:"sub_windows"`
	Fails      failKinds          `json:"failures"`
	Checks     []checkReport      `json:"checks"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Traced     *tracedReport      `json:"traced,omitempty"`
}

type tracedReport struct {
	WindowS      float64            `json:"window_s"`
	Spans        int                `json:"spans"`
	SpanCap      int                `json:"span_capacity"`
	Samples      map[string]uint64  `json:"span_samples"` // spans behind each span-derived percentile
	SpansFile    string             `json:"spans_file"`
	PerLayer     map[string]float64 `json:"per_layer"`
	HandleSample int64              `json:"server_handle_samples"`
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// checkReport records which output checks ran on one stack and what they
// found. ok requires every check to have run.
type checkReport struct {
	Run        string   `json:"run"`
	Reads      int64    `json:"reads_checked"`
	BadReads   int64    `json:"reads_wrong"`
	Invariants bool     `json:"invariants_ok"`
	Durable    int      `json:"pages_read_back"`
	Errors     []string `json:"errors,omitempty"`
}

func (c checkReport) ok() bool {
	return c.Reads > 0 && c.BadReads == 0 && c.Invariants && c.Durable > 0 && len(c.Errors) == 0
}

// close stops the runner's stack and runs the output checks.
func (r *runner) close(name string) checkReport {
	all := r.past
	all.add(r.tally())
	c := checkReport{Run: name, Reads: all.reads, BadReads: all.badReads}
	for _, w := range r.ws {
		if w.err != nil {
			c.Errors = append(c.Errors, fmt.Sprintf("worker %d: %v", w.id, w.err))
		}
	}
	verify := r.led.verifyDevice
	if r.wled != nil {
		verify = r.wled.verifyDevice
	}
	var err error
	c.Invariants, c.Durable, err = r.st.finish(verify)
	if err != nil {
		c.Errors = append(c.Errors, err.Error())
	}
	return c
}

func run(o options, out io.Writer) (result, error) {
	sp, err := specFor(o.workload)
	if err != nil {
		return result{}, err
	}
	in := genInputs(sp, o.seed, o.perWorker)
	rep := report{
		Workload: sp.name, Seed: o.seed, Host: fingerprint(), Frames: sp.frames, Pages: len(in.ids),
		TraceLen: len(in.traces[0]), Workers: workers, SetupRuns: o.setups,
	}
	window := time.Duration(o.seconds * float64(time.Second))

	st, setupS, err := setup(sp, in, nil, o.setups)
	if err != nil {
		return result{}, err
	}
	r := newRunner(sp, in, st, nil)
	r.warm(o.warmup)
	w := r.measure(window, max(1, int(window/o.subWindow)))
	rep.Checks = append(rep.Checks, r.close("untraced"))
	rep.WindowS = w.dur.Seconds()
	rep.Fails = w.tally.fails
	rep.SubWindows = w.figures()
	for _, f := range rep.SubWindows {
		rep.TxnSamples += f.Samples
	}
	rep.EndToEnd = endToEndMetrics(w, rep.SubWindows, setupS)
	res := result{Attempted: w.tally.attempted, Failed: w.tally.fails.total()}
	values, defs := rep.EndToEnd, endToEnd

	if o.trace {
		collect()
		layer, tr, err := tracedRun(o, sp, in, w)
		if err != nil {
			return result{}, err
		}
		rep.Checks = append(rep.Checks, tr.check)
		rep.Traced = &tr.report
		res.Attempted += tr.tally.attempted
		res.Failed += tr.tally.fails.total()
		rep.Fails.add(tr.tally.fails)
		values, defs = layer, perLayer
	}

	res.Correct = true
	for _, c := range rep.Checks {
		res.Correct = res.Correct && c.ok()
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(map[string]report{"report": rep})
	if err != nil {
		return result{}, err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return res, err
}

type tracedResult struct {
	report tracedReport
	check  checkReport
	tally  tally
}

// tracedRun builds a fresh stack with the timing decorators, records spans
// over a short window, and combines them with the untraced window's
// counters into the per-layer metrics.
func tracedRun(o options, sp spec, in *inputs, w window) (map[string]float64, tracedResult, error) {
	var res tracedResult
	tr := newTracer(o.spanCap)
	st, _, err := setup(sp, in, tr, 1)
	if err != nil {
		return nil, res, err
	}
	r := newRunner(sp, in, st, tr)
	r.warm(o.warmup)
	tw := r.traced(time.Duration(min(o.traceSeconds, o.seconds) * float64(time.Second)))
	res.tally = r.tally()
	res.check = r.close("traced")

	spans := tr.spans()
	layer := counterMetrics(w)
	fromSpans, samples := spanMetrics(spans, tw, sp.wire)
	for k, v := range fromSpans {
		layer[k] = v
	}
	layer["replacer.replay_ns_per_op"], layer["replacer.replay_allocs_per_op"] = replay(in, sp.frames)
	// Both rates are whole-window means: the traced window is too short
	// for sub-window figures.
	var ops int64
	for _, s := range w.subs {
		ops += s.ops
	}
	untraced := ratio(float64(ops), w.dur.Seconds())
	layer["trace.overhead_frac"] = 1 - ratio(float64(tw.ops)/tw.dur.Seconds(), untraced)

	res.report = tracedReport{
		WindowS: tw.dur.Seconds(), Spans: len(spans), SpanCap: o.spanCap, PerLayer: layer,
		Samples: samples, HandleSample: tw.b.handle.since(tw.a.handle).count,
	}
	// One file per workload, overwritten by each traced run, so repeated
	// runs do not pile up span logs in the checkout.
	res.report.SpansFile = filepath.Join(o.spansDir, sp.name+".spans")
	if err := tr.writeFile(res.report.SpansFile); err != nil {
		return nil, res, fmt.Errorf("write spans: %w", err)
	}
	return layer, res, nil
}

func writeLine(out io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
