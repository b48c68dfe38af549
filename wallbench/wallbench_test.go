package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// TestTracedPolicyForwarding checks that the timing decorator exposes the
// optional policy interfaces exactly when the wrapped policy has them, for
// every policy in the repository.
func TestTracedPolicyForwarding(t *testing.T) {
	tr := newTracer(16)
	for name, f := range replacer.Factories() {
		inner := f(64)
		dec := tracePolicy(inner, tr)
		_, innerPF := inner.(replacer.Prefetcher)
		_, decPF := dec.(replacer.Prefetcher)
		if innerPF != decPF {
			t.Errorf("%s: policy implements Prefetcher = %v, decorator = %v", name, innerPF, decPF)
		}
		_, innerLF := inner.(replacer.LockFreeHit)
		_, decLF := dec.(replacer.LockFreeHit)
		if innerLF != decLF {
			t.Errorf("%s: policy implements LockFreeHit = %v, decorator = %v", name, innerLF, decLF)
		}
		if replacer.HitNeedsLock(inner) != replacer.HitNeedsLock(dec) {
			t.Errorf("%s: HitNeedsLock differs through the decorator", name)
		}
		if dec.Name() != inner.Name() {
			t.Errorf("%s: decorator reports name %q", name, dec.Name())
		}
	}
	if _, ok := tracePolicy(replacer.NewTwoQ(8), tr).(replacer.Prefetcher); !ok {
		t.Fatal("decorated 2Q lost Prefetch: the pool would run batching without prefetching")
	}
}

// TestTracedPoolPrefetches checks end to end that a pool built on the
// decorated 2Q still prefetches: the wrapper finds Prefetch through the
// decorator, and the decorator records it.
func TestTracedPoolPrefetches(t *testing.T) {
	tr := newTracer(1 << 16)
	pool := buffer.New(buffer.Config{
		Frames:        64,
		PolicyFactory: func(c int) replacer.Policy { return tracePolicy(replacer.NewTwoQ(c), tr) },
		Wrapper:       core.Config{Batching: true, Prefetching: true},
		Device:        &tracedDevice{Device: storage.NewMemDevice(), t: tr},
	})
	defer pool.Close()
	tr.on.Store(true)
	s := pool.NewSession()
	for i := 0; i < 2000; i++ {
		ref, err := pool.Get(s, page.NewPageID(1, uint64(i%32)))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	s.Flush()
	tr.on.Store(false)
	count := map[spanKind]int{}
	for _, sp := range tr.spans() {
		count[sp.kind]++
	}
	for _, k := range []spanKind{kindPrefetch, kindHit, kindAdmit, kindRead} {
		if count[k] == 0 {
			t.Errorf("no spans of kind %d recorded (counts %v)", k, count)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric tables must match.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	check := func(what string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", what, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	for _, w := range f.Workloads {
		if _, err := specFor(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks the output: every listed metric with its unit, every output check
// run and passed, and the workloads stressing what they were chosen for.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: name, seed: 7, seconds: 0.5, trace: traced, setups: 2,
				warmup: 100 * time.Millisecond, perWorker: 1 << 15, subWindow: 100 * time.Millisecond,
				spanCap: 1 << 17, traceSeconds: 0.3, spansDir: t.TempDir(),
			}
			var out bytes.Buffer
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if err := writeLine(&out, res); err != nil {
				t.Fatal(err)
			}
			checkShortRun(t, name, traced, out.String())
		}
	}
}

func checkShortRun(t *testing.T, name string, traced bool, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want a report line and a result line, got %d lines", name, len(lines))
	}
	var rep struct{ Report report }
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatalf("%s: report line: %v", name, err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &keys); err != nil {
		t.Fatalf("%s: result line: %v", name, err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("%s: result line keys: %s", name, lines[1])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d; checks %+v", name, traced, res.Correct, res.Attempted, res.Failed, rep.Report.Checks)
	}
	want := 1
	defs := endToEnd
	if traced {
		want, defs = 2, perLayer
	}
	if len(rep.Report.Checks) != want {
		t.Errorf("%s trace=%v: %d check reports, want %d", name, traced, len(rep.Report.Checks), want)
	}
	for _, c := range rep.Report.Checks {
		if c.Reads == 0 || !c.Invariants || c.Durable == 0 {
			t.Errorf("%s %s run: an output check was skipped: %+v", name, c.Run, c)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
			t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", name, traced, d.name, m.Unit, d.unit)
		}
	}
	if !traced {
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.name, res.Metrics[d.name].Value)
			}
		}
		return
	}
	m := func(k string) float64 { return res.Metrics[k].Value }
	switch name {
	case "cached-tpcw":
		if m("storage.reads_per_kop") != 0 {
			t.Errorf("cached-tpcw read the device after warm-up: %v reads/kop", m("storage.reads_per_kop"))
		}
	case "hotspot-write":
		missRatio := 1 - rep.Report.EndToEnd["hit_ratio"]
		if math.Abs(m("replacer.admits_per_op")-missRatio) > 0.1 {
			t.Errorf("hotspot-write: %v admits/op, want about 1 - hit_ratio = %v", m("replacer.admits_per_op"), missRatio)
		}
	case "wire-tpcw":
		if m("server.wire_ns_per_op") <= m("buffer.self_ns_per_op") {
			t.Errorf("wire-tpcw: wire %v ns/op not above buffer self %v ns/op", m("server.wire_ns_per_op"), m("buffer.self_ns_per_op"))
		}
	}
}
