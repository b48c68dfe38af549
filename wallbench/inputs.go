package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"bpwrapper/internal/page"
	"bpwrapper/internal/workload"
)

// workers is the closed-loop client count: one per core of the 2-core host
// the benchmark was written for.
const workers = 2

// spec is one named workload: its page-reference generator, the pool size
// it runs against, and how requests reach the pool.
type spec struct {
	name    string
	gen     workload.Workload
	frames  int
	prewarm bool // load every data page before timing
	wire    bool // send accesses through the page server over loopback TCP
}

// workloadNames lists the workloads the program can run. BENCHMARK.json
// lists those steady enough on the benchmark host to gate changes:
// cached-tpcw is left out because its speed follows the host's placement
// of the two virtual CPUs (whole 30 s runs at under half speed).
var workloadNames = []string{"cached-tpcw", "hotspot-write", "wire-tpcw"}

func specFor(name string) (spec, error) {
	switch name {
	case "cached-tpcw", "wire-tpcw":
		w := workload.NewTPCW(workload.TPCWConfig{})
		return spec{name: name, gen: w, frames: w.DataPages(), prewarm: true, wire: name == "wire-tpcw"}, nil
	case "hotspot-write":
		w := workload.NewHotspot(workload.SyntheticConfig{Pages: 16384, WriteFraction: 0.3})
		return spec{name: name, gen: w, frames: 2048}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// writeBit marks a write access in a trace entry; the low bits hold the
// page's dense index.
const writeBit = 1 << 31

// inputs are everything generated from the seed before any timing: dense
// page numbering, per-worker access traces with transaction boundaries,
// and the expected head of every page's initial content.
type inputs struct {
	ids       []page.PageID // dense index → page id
	stampHead []uint64      // dense index → first 8 bytes of the page's initial content
	traces    [workers][]uint32
	txnEnds   [workers][]int32 // end offset of each transaction in traces[w]
}

// genInputs draws about perWorker accesses for each worker from the
// workload's streams. Every page of the workload gets a dense index, so the
// per-page checks index slices instead of maps.
func genInputs(sp spec, seed int64, perWorker int) *inputs {
	in := &inputs{}
	index := make(map[page.PageID]uint32)
	add := func(id page.PageID) uint32 {
		i, ok := index[id]
		if !ok {
			i = uint32(len(in.ids))
			index[id] = i
			in.ids = append(in.ids, id)
		}
		return i
	}
	for _, id := range sp.gen.Pages() {
		add(id)
	}
	for w := 0; w < workers; w++ {
		st := sp.gen.NewStream(w, seed)
		var buf []workload.Access
		tr := make([]uint32, 0, perWorker+256)
		for len(tr) < perWorker {
			buf = st.NextTxn(buf[:0])
			for _, a := range buf {
				e := add(a.Page)
				if a.Write {
					e |= writeBit
				}
				tr = append(tr, e)
			}
			in.txnEnds[w] = append(in.txnEnds[w], int32(len(tr)))
		}
		in.traces[w] = tr
	}
	var p page.Page
	in.stampHead = make([]uint64, len(in.ids))
	for i, id := range in.ids {
		p.Stamp(id)
		in.stampHead[i] = binary.LittleEndian.Uint64(p.Data[:8])
	}
	return in
}

// Pages the benchmark writes carry a 16-byte head: the page id xor
// writtenMagic, then a version. In process the version is the page's write
// count; over the wire it is the writing worker in the high 32 bits and
// that worker's PUT sequence number in the low 32.
const writtenMagic = 0x5742454e43485752

func headTag(id page.PageID) uint64 { return uint64(id) ^ writtenMagic }

func putHead(data []byte, id page.PageID, version uint64) {
	binary.LittleEndian.PutUint64(data[0:8], headTag(id))
	binary.LittleEndian.PutUint64(data[8:16], version)
}

// readHead decodes a page head: written reports whether the benchmark
// wrote the page, ok whether the head belongs to page idx at all.
func (in *inputs) readHead(idx uint32, data []byte) (version uint64, written, ok bool) {
	h := binary.LittleEndian.Uint64(data[0:8])
	switch h {
	case headTag(in.ids[idx]):
		return binary.LittleEndian.Uint64(data[8:16]), true, true
	case in.stampHead[idx]:
		return 0, false, true
	}
	return 0, false, false
}

// ledger is the in-process ground truth: each page's write count, bumped
// by whichever worker holds the page's write lock. A reader pinned on the
// page sees the count of the last write, because the pin excludes writers.
type ledger struct {
	in     *inputs
	counts []atomic.Uint32
}

func newLedger(in *inputs) *ledger {
	return &ledger{in: in, counts: make([]atomic.Uint32, len(in.ids))}
}

// read checks a pinned page against the ledger.
func (l *ledger) read(idx uint32, data []byte) bool {
	v, _, ok := l.in.readHead(idx, data)
	return ok && v == uint64(l.counts[idx].Load())
}

// write checks a page pinned for writing, then bumps its write count in
// the page and in the ledger.
func (l *ledger) write(idx uint32, data []byte) bool {
	v, _, ok := l.in.readHead(idx, data)
	want := l.counts[idx].Load()
	putHead(data, l.in.ids[idx], uint64(want)+1)
	l.counts[idx].Store(want + 1)
	return ok && v == uint64(want)
}

// verifyDevice checks, after the pool closed, that every page the ledger
// says was written holds its last write on the device: the head with the
// final count and the untouched rest of the original content.
func (l *ledger) verifyDevice(read func(page.PageID, *page.Page) error) (checked int, err error) {
	var got, want page.Page
	for idx := range l.counts {
		n := l.counts[idx].Load()
		if n == 0 {
			continue
		}
		id := l.in.ids[idx]
		if err := read(id, &got); err != nil {
			return checked, fmt.Errorf("read back %v: %w", id, err)
		}
		want.Stamp(id)
		putHead(want.Data[:], id, uint64(n))
		if got.Data != want.Data {
			v, _, _ := l.in.readHead(uint32(idx), got.Data[:])
			return checked, fmt.Errorf("page %v lost a write: device holds version %d, want %d", id, v, n)
		}
		checked++
	}
	return checked, nil
}

// wireLedger is the ground truth over the wire, where two connections may
// race PUTs to one page: each worker remembers the version of its last
// acknowledged PUT per page, and PUTs whose outcome a transport failure
// left unknown.
type wireLedger struct {
	in      *inputs
	seq     [workers]uint32
	last    [workers][]uint64
	unknown [workers]map[uint32][]uint64
}

func newWireLedger(in *inputs) *wireLedger {
	l := &wireLedger{in: in}
	for w := range l.last {
		l.last[w] = make([]uint64, len(in.ids))
		l.unknown[w] = make(map[uint32][]uint64)
	}
	return l
}

// nextPut fills data with worker w's next PUT image of page idx: the head
// and a zero body. It returns the version written.
func (l *wireLedger) nextPut(w int, idx uint32, data []byte) uint64 {
	l.seq[w]++
	v := uint64(w)<<32 | uint64(l.seq[w])
	clear(data)
	putHead(data, l.in.ids[idx], v)
	return v
}

// read checks a GET result: it must be page idx, either untouched or
// written by one of the workers.
func (l *wireLedger) read(idx uint32, data []byte) bool {
	if len(data) != page.Size {
		return false
	}
	v, written, ok := l.in.readHead(idx, data)
	return ok && (!written || v>>32 < workers)
}

// verifyDevice checks, after the pool closed, that every page a worker
// PUT holds exactly one of the last acknowledged PUTs (or a PUT whose
// acknowledgement was lost to a transport failure).
func (l *wireLedger) verifyDevice(read func(page.PageID, *page.Page) error) (checked int, err error) {
	var got, want page.Page
	for idx := range l.in.ids {
		var cands []uint64
		for w := range l.last {
			if v := l.last[w][idx]; v != 0 {
				cands = append(cands, v)
			}
			cands = append(cands, l.unknown[w][uint32(idx)]...)
		}
		if len(cands) == 0 {
			continue
		}
		id := l.in.ids[idx]
		if err := read(id, &got); err != nil {
			return checked, fmt.Errorf("read back %v: %w", id, err)
		}
		match := false
		for _, v := range cands {
			l.imageOf(&want, id, v)
			match = match || got.Data == want.Data
		}
		if !match {
			v, _, _ := l.in.readHead(uint32(idx), got.Data[:])
			return checked, fmt.Errorf("page %v lost its last PUT: device holds version %#x, want one of %#x", id, v, cands)
		}
		checked++
	}
	return checked, nil
}

func (l *wireLedger) imageOf(p *page.Page, id page.PageID, v uint64) {
	clear(p.Data[:])
	putHead(p.Data[:], id, v)
}
