package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"time"

	"bpwrapper/internal/page"
)

// Client is one connection to a bpserver. It mirrors the pool's session
// contract: not safe for concurrent use — one client per worker — so the
// pipelining machinery needs no locks and the server can map the
// connection onto a single buffer.Session.
type Client struct {
	nc    net.Conn
	bw    *bufio.Writer
	fr    frameReader
	next  uint64 // next request ID
	wbuf  []byte // reused request-encoding buffer
	trace uint64 // trace ID attached to outgoing requests; 0 = untraced

	// Do's reused result storage: the positional results and the GET
	// page bytes they point into, valid until the next Do.
	res  []OpResult
	data []byte
}

// SetTraceID attaches a trace ID to every subsequent request (via the
// protocol's trace-context extension) until changed; zero clears it. The
// server adopts the ID for the request's pool access, so the client's
// trace and the server-side spans share one identity end to end.
func (c *Client) SetTraceID(id uint64) { c.trace = id }

// appendReq encodes one request frame, injecting the trace-context
// extension when a trace ID is set.
func (c *Client) appendReq(dst []byte, code byte, reqID uint64, payload ...[]byte) []byte {
	if c.trace == 0 {
		return appendFrame(dst, code, reqID, payload...)
	}
	var tb [8]byte
	be.PutUint64(tb[:], c.trace)
	parts := append(make([][]byte, 0, len(payload)+1), tb[:])
	return appendFrame(dst, code|TraceFlag, reqID, append(parts, payload...)...)
}

// Dial connects to a bpserver at addr.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c := &Client{
		nc: nc,
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
	c.fr.r = bufio.NewReaderSize(nc, 32<<10)
	return c, nil
}

// Close hangs up. In-flight pipelined requests are abandoned.
func (c *Client) Close() error { return c.nc.Close() }

// roundTrip sends one request and reads its response, verifying the
// echoed ID. The returned payload aliases the reader's buffer: valid
// until the next call.
func (c *Client) roundTrip(code byte, payload ...[]byte) (status byte, resp []byte, err error) {
	id := c.next
	c.next++
	c.wbuf = c.appendReq(c.wbuf[:0], code, id, payload...)
	if _, err = c.bw.Write(c.wbuf); err != nil {
		return 0, nil, err
	}
	if err = c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	status, gotID, resp, err := c.fr.next()
	if err != nil {
		return 0, nil, err
	}
	if gotID != id {
		return 0, nil, fmt.Errorf("client: response ID %d for request %d (stream desynced)", gotID, id)
	}
	return status, resp, nil
}

// Get fetches page id. The returned bytes alias the client's read buffer
// and are valid only until the next call; copy to retain.
func (c *Client) Get(id page.PageID) ([]byte, error) {
	var pid [8]byte
	be.PutUint64(pid[:], uint64(id))
	status, resp, err := c.roundTrip(OpGet, pid[:])
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, errForStatus(status, resp)
	}
	if len(resp) != page.Size {
		return nil, fmt.Errorf("client: GET returned %d bytes, want %d", len(resp), page.Size)
	}
	return resp, nil
}

// Put overwrites page id with data (exactly page.Size bytes) and marks
// it dirty. A nil return means the server applied and acknowledged the
// write: it is resident-dirty there and a graceful drain will flush it.
func (c *Client) Put(id page.PageID, data []byte) error {
	if len(data) != page.Size {
		return fmt.Errorf("client: PUT data must be %d bytes, got %d", page.Size, len(data))
	}
	var pid [8]byte
	be.PutUint64(pid[:], uint64(id))
	status, resp, err := c.roundTrip(OpPut, pid[:], data)
	if err != nil {
		return err
	}
	return errForStatus(status, resp)
}

// Invalidate drops page id server-side, discarding dirty contents.
func (c *Client) Invalidate(id page.PageID) error {
	var pid [8]byte
	be.PutUint64(pid[:], uint64(id))
	status, resp, err := c.roundTrip(OpInvalidate, pid[:])
	if err != nil {
		return err
	}
	return errForStatus(status, resp)
}

// Flush asks the server to write every dirty page back, returning the
// number made durable.
func (c *Client) Flush() (int, error) {
	status, resp, err := c.roundTrip(OpFlush)
	if err != nil {
		return 0, err
	}
	if status != StatusOK {
		return 0, errForStatus(status, resp)
	}
	if len(resp) != 8 {
		return 0, fmt.Errorf("client: FLUSH returned %d bytes, want 8", len(resp))
	}
	return int(be.Uint64(resp)), nil
}

// Stats fetches the server's operational snapshot.
func (c *Client) Stats() (RemoteStats, error) {
	var rs RemoteStats
	status, resp, err := c.roundTrip(OpStats)
	if err != nil {
		return rs, err
	}
	if status != StatusOK {
		return rs, errForStatus(status, resp)
	}
	if err := json.Unmarshal(resp, &rs); err != nil {
		return rs, fmt.Errorf("client: STATS payload: %w", err)
	}
	return rs, nil
}

// Op is one operation in a pipelined batch.
type Op struct {
	Code byte
	Page page.PageID
	Data []byte // PUT page bytes; ignored for other ops
}

// OpResult is one pipelined operation's outcome. Data holds a successful
// GET's page and is nil for every other op. Like the result slice itself,
// it is backed by client-owned storage and valid only until the next Do;
// copy to retain.
type OpResult struct {
	Status byte
	Err    error
	Data   []byte
}

// Do sends a batch of operations in one write — the client half of the
// server's batched decode: the whole burst lands in one (or few) kernel
// reads, is served as one batch through the connection's session, and
// comes back under one response flush. Results are positional. A
// transport error fails the whole batch; per-op failures (shed misses,
// invalid pages) land in their slot's Err.
//
// The returned slice and every result's Data reuse the client's buffers:
// they are valid only until the next Do (the contract Get already has),
// so a steady stream of bursts allocates nothing per page.
func (c *Client) Do(ops []Op) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	base := c.next
	c.next += uint64(len(ops))
	buf := c.wbuf[:0]
	var pid [8]byte
	for i, op := range ops {
		be.PutUint64(pid[:], uint64(op.Page))
		switch op.Code {
		case OpPut:
			if len(op.Data) != page.Size {
				return nil, fmt.Errorf("client: Do[%d]: PUT data must be %d bytes", i, page.Size)
			}
			buf = c.appendReq(buf, OpPut, base+uint64(i), pid[:], op.Data)
		case OpFlush, OpStats:
			buf = c.appendReq(buf, op.Code, base+uint64(i))
		default:
			buf = c.appendReq(buf, op.Code, base+uint64(i), pid[:])
		}
	}
	c.wbuf = buf
	if _, err := c.bw.Write(buf); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	gets := 0
	for _, op := range ops {
		if op.Code == OpGet {
			gets++
		}
	}
	c.res = slices.Grow(c.res[:0], len(ops))[:len(ops)]
	c.data = slices.Grow(c.data[:0], gets*page.Size)
	out := c.res
	for i := range ops {
		status, gotID, resp, err := c.fr.next()
		if err != nil {
			return nil, fmt.Errorf("client: Do[%d]: %w", i, err)
		}
		if gotID != base+uint64(i) {
			return nil, fmt.Errorf("client: Do[%d]: response ID %d, want %d (stream desynced)", i, gotID, base+uint64(i))
		}
		out[i] = OpResult{Status: status}
		if status != StatusOK {
			out[i].Err = errForStatus(status, resp)
			continue
		}
		if ops[i].Code == OpGet {
			// Each page gets its own capped window of c.data: an append
			// that outgrew the reserve moves later pages to a new array
			// but leaves the earlier ones intact.
			n := len(c.data)
			c.data = append(c.data, resp...)
			out[i].Data = c.data[n:len(c.data):len(c.data)]
		}
	}
	return out, nil
}
