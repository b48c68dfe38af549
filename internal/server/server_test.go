package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// newTestServer builds a MemDevice-backed pool and a loopback server
// over it. The caller owns shutdown via the returned close func (abrupt;
// drain tests call Drain themselves first).
func newTestServer(t *testing.T, frames, shards int, cfg Config) (*Server, *storage.MemDevice, func()) {
	t.Helper()
	mem := storage.NewMemDevice()
	pool := buffer.New(buffer.Config{
		Frames:        frames,
		Shards:        shards,
		PolicyFactory: replacer.Factories()["lru"],
		Device:        mem,
	})
	cfg.Pool = pool
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv, mem, func() { srv.Close() }
}

func testPage(n uint64) page.PageID { return page.NewPageID(1, n) }

func TestServerRoundTrips(t *testing.T) {
	srv, _, done := newTestServer(t, 16, 1, Config{})
	defer done()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// GET of an unwritten page returns the device's deterministic stamp.
	id := testPage(1)
	got, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	var want page.Page
	want.Stamp(id)
	if !bytes.Equal(got, want.Data[:]) {
		t.Fatal("GET bytes differ from the device stamp")
	}

	// PUT new content, re-GET it through the cache.
	var mine page.Page
	mine.Stamp(testPage(99))
	if err := c.Put(id, mine.Data[:]); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err = c.Get(id)
	if err != nil {
		t.Fatalf("Get after Put: %v", err)
	}
	if !bytes.Equal(got, mine.Data[:]) {
		t.Fatal("GET did not return the PUT content")
	}

	// FLUSH makes it durable.
	n, err := c.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n < 1 {
		t.Fatalf("Flush reported %d pages, want ≥ 1", n)
	}

	// INVALIDATE drops the cached copy; re-GET reloads from the device,
	// which now holds the flushed content.
	if err := c.Invalidate(id); err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	got, err = c.Get(id)
	if err != nil {
		t.Fatalf("Get after Invalidate: %v", err)
	}
	if !bytes.Equal(got, mine.Data[:]) {
		t.Fatal("reloaded page is not the flushed content")
	}

	// STATS reflects the traffic.
	rs, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if rs.Frames != 16 || rs.Conns != 1 || rs.Misses == 0 {
		t.Fatalf("Stats = %+v, want frames=16 conns=1 misses>0", rs)
	}

	// Typed errors survive the wire.
	if _, err := c.Get(page.InvalidPageID); !errors.Is(err, storage.ErrInvalidPage) {
		t.Fatalf("GET invalid page: err = %v, want ErrInvalidPage", err)
	}
}

func TestServerPipelinedBatch(t *testing.T) {
	srv, _, done := newTestServer(t, 64, 2, Config{})
	defer done()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	var ops []Op
	for i := uint64(0); i < 32; i++ {
		ops = append(ops, Op{Code: OpGet, Page: testPage(i)})
	}
	results, err := c.Do(ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
		var want page.Page
		want.Stamp(testPage(uint64(i)))
		if !bytes.Equal(r.Data, want.Data[:]) {
			t.Fatalf("op %d: wrong page content", i)
		}
	}
	// A mixed batch: PUT then GET of the same page sees the new bytes
	// (per-connection requests are served in order).
	var pg page.Page
	pg.Stamp(testPage(1000))
	results, err = c.Do([]Op{
		{Code: OpPut, Page: testPage(5), Data: pg.Data[:]},
		{Code: OpGet, Page: testPage(5)},
	})
	if err != nil {
		t.Fatalf("Do put+get: %v", err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("put/get errs: %v / %v", results[0].Err, results[1].Err)
	}
	if !bytes.Equal(results[1].Data, pg.Data[:]) {
		t.Fatal("pipelined GET did not observe the preceding PUT")
	}
}

// TestServerDuplicateRequestIDs pins the framing contract: IDs are the
// client's namespace, matching is positional, so a (buggy or adversarial)
// client reusing an ID still gets both answers, in order, echoing it.
func TestServerDuplicateRequestIDs(t *testing.T) {
	srv, _, done := newTestServer(t, 8, 1, Config{})
	defer done()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	var pid [8]byte
	be.PutUint64(pid[:], uint64(testPage(1)))
	raw := appendFrame(nil, OpGet, 42, pid[:])
	raw = appendFrame(raw, OpGet, 42, pid[:])
	if _, err := nc.Write(raw); err != nil {
		t.Fatalf("write: %v", err)
	}
	fr := frameReaderOn(nc)
	for i := 0; i < 2; i++ {
		status, id, payload, err := fr.next()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if status != StatusOK || id != 42 || len(payload) != page.Size {
			t.Fatalf("response %d: status=%s id=%d len=%d", i, statusName(status), id, len(payload))
		}
	}
}

// TestServerBadRequests verifies malformed payloads get typed BadRequest
// answers while the connection survives, and an unknown opcode retires
// the connection after answering (alignment is unprovable past it).
func TestServerBadRequests(t *testing.T) {
	srv, _, done := newTestServer(t, 8, 1, Config{})
	defer done()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	fr := frameReaderOn(nc)

	// Short GET payload: BadRequest, connection still serves.
	raw := appendFrame(nil, OpGet, 1, []byte{1, 2, 3})
	var pid [8]byte
	be.PutUint64(pid[:], uint64(testPage(1)))
	raw = appendFrame(raw, OpGet, 2, pid[:])
	if _, err := nc.Write(raw); err != nil {
		t.Fatalf("write: %v", err)
	}
	status, id, msg, err := fr.next()
	if err != nil || status != StatusBadRequest || id != 1 {
		t.Fatalf("bad GET: status=%s id=%d err=%v (%q)", statusName(status), id, err, msg)
	}
	status, id, _, err = fr.next()
	if err != nil || status != StatusOK || id != 2 {
		t.Fatalf("follow-up GET: status=%s id=%d err=%v", statusName(status), id, err)
	}

	// Unknown opcode: BadRequest response, then the server hangs up.
	if _, err := nc.Write(appendFrame(nil, 0xEE, 3)); err != nil {
		t.Fatalf("write unknown op: %v", err)
	}
	status, id, _, err = fr.next()
	if err != nil || status != StatusBadRequest || id != 3 {
		t.Fatalf("unknown op: status=%s id=%d err=%v", statusName(status), id, err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, _, err = fr.next(); err == nil {
		t.Fatal("connection survived an unknown opcode")
	}
}

// frameReaderOn wraps a raw test connection for response decoding.
func frameReaderOn(nc net.Conn) *frameReader {
	return &frameReader{r: bufio.NewReader(nc)}
}

// isConnReset reports a peer-reset transport error (the poke/close race
// surfaces as ECONNRESET on some kernels, EPIPE on others).
func isConnReset(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "connection reset") ||
		strings.Contains(err.Error(), "broken pipe"))
}

func TestServerMaxConns(t *testing.T) {
	srv, _, done := newTestServer(t, 8, 1, Config{MaxConns: 2})
	defer done()

	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer c2.Close()
	// Ensure both are registered before the third tries.
	if _, err := c1.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if _, err := c2.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}

	c3, err := Dial(srv.Addr())
	if err == nil {
		// Accept succeeded at the TCP level; the server closes it
		// immediately, so the first round trip must fail.
		defer c3.Close()
		if _, err := c3.Stats(); err == nil {
			t.Fatal("third connection served beyond MaxConns=2")
		}
	}
	waitFor(t, time.Second, func() bool { return srv.c.rejected.Load() >= 1 })
}

func TestServerObsMetrics(t *testing.T) {
	srv, _, done := newTestServer(t, 8, 1, Config{})
	defer done()

	reg := obs.NewRegistry()
	srv.RegisterObs(reg)
	srv.Pool().RegisterObs(reg)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Get(testPage(1)); err != nil {
		t.Fatalf("Get: %v", err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"bpw_server_conns_accepted_total 1",
		`bpw_server_requests_total{op="get"} 1`,
		`bpw_server_responses_total{status="ok"} 1`,
		"bpw_server_bytes_in_total",
		"bpw_server_bytes_out_total",
		"bpw_server_op_seconds_count",
		"bpw_server_conns_active 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestServerDrainGraceServesResidentThenRefuses walks the drain ladder
// end to end over the wire: during the grace window resident GETs serve
// and misses shed as typed OVERLOADED; past the grace, requests answer
// DRAINING; acknowledged writes survive into the device.
func TestServerDrainGraceServesResidentThenRefuses(t *testing.T) {
	srv, mem, done := newTestServer(t, 8, 1, Config{DrainGrace: 300 * time.Millisecond})
	defer done()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Warm page 1 and dirty it: the drain must flush this without help.
	resident := testPage(1)
	var pg page.Page
	pg.Stamp(testPage(777))
	if err := c.Put(resident, pg.Data[:]); err != nil {
		t.Fatalf("Put: %v", err)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(10 * time.Second) }()
	waitFor(t, 2*time.Second, func() bool { return srv.state.Load() >= stateDraining })

	// Grace window: the resident page still serves over the wire…
	got, err := c.Get(resident)
	if err != nil {
		t.Fatalf("resident GET during grace: %v", err)
	}
	if !bytes.Equal(got, pg.Data[:]) {
		t.Fatal("resident GET served wrong bytes during grace")
	}
	// …while a miss sheds with the typed OVERLOADED status.
	if _, err := c.Get(testPage(500)); !errors.Is(err, buffer.ErrOverloaded) {
		t.Fatalf("miss during grace: err = %v, want ErrOverloaded", err)
	}

	// Past the grace: anything still sent answers DRAINING (or the
	// connection is already gone, if the poke won the race).
	waitFor(t, 2*time.Second, func() bool { return srv.state.Load() >= stateClosing })
	if _, err := c.Get(resident); err != nil && !errors.Is(err, ErrDraining) {
		// Transport errors are legal here — the poke may close the
		// connection before this request lands.
		var ne net.Error
		if !errors.As(err, &ne) && !errors.Is(err, net.ErrClosed) &&
			!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !isConnReset(err) {
			t.Fatalf("post-grace GET: unexpected error type %v", err)
		}
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The acknowledged PUT is durable: the device holds its bytes.
	var onDisk page.Page
	if err := mem.ReadPage(resident, &onDisk); err != nil {
		t.Fatalf("device read: %v", err)
	}
	if !bytes.Equal(onDisk.Data[:], pg.Data[:]) {
		t.Fatal("acknowledged PUT lost through drain")
	}
	// Second drain is refused.
	if err := srv.Drain(time.Second); !errors.Is(err, ErrDraining) {
		t.Fatalf("second Drain: err = %v, want ErrDraining", err)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
