// Package transport provides ElGA's message-passing substrate.
//
// The paper builds on ZeroMQ (§3.5) for three communication patterns:
// REQ/REP for low-latency blocking requests, PUSH for medium-latency
// non-blocking sends (with an explicit second PUSH as acknowledgement when
// needed), and PUB/SUB for high-latency broadcasts filtered on the 1-byte
// packet type. This package reimplements those patterns over an abstract
// frame transport with two implementations:
//
//   - inproc: a pair of in-memory pipes, the stand-in for ZeroMQ's
//     inproc:// used when many Participants share one OS process;
//   - tcp: length-framed packets over real sockets.
//
// Like ZeroMQ, reads, dials and every write that could wait happen on
// dedicated goroutines, so entity event loops overlap computation with
// communication management. One write does not: a frame for a peer that is
// dialled and has nothing queued or in flight is written by the sender
// itself, without waiting (TryConn) — a barrier hop is then one write and
// one wake-up, the receiver's.
//
// A cluster holds a conn per ordered pair of participants, so what an idle
// one costs matters. Every queue here — a peer's, each direction of an
// in-proc conn — is, like ZeroMQ's high-water mark, a limit and not an
// allocation: it holds storage for its backlog only and lets it go once the
// backlog drains. CancelPeer retires a peer whose participant has gone.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"

	"elga/internal/wire"
)

// Conn carries whole frames in order. Implementations are safe for one
// concurrent sender and one concurrent receiver.
type Conn interface {
	// Send transmits one frame. The conn must not retain frame after
	// Send returns: callers recycle frames to the wire pool immediately.
	Send(frame []byte) error
	// Recv returns the next frame, or an error once the peer closes.
	// The frame is drawn from the wire frame pool; ownership passes to
	// the caller, who releases it (usually via wire.ReleasePacket).
	Recv() ([]byte, error)
	// Close releases the connection; pending Recv calls fail.
	Close() error
}

// BatchConn is an optional Conn extension: SendBatch transmits several
// frames in one vectored write, letting the per-peer writer coalesce a
// burst of queued frames into a single syscall. Same retention contract
// as Send: frames must not be referenced after SendBatch returns.
type BatchConn interface {
	SendBatch(frames [][]byte) error
}

// TryConn is an optional Conn extension: TrySend transmits frames only as
// far as it can without waiting and reports whether all of them went out.
// After a false the caller passes the same frames, first and in the same
// order, to the conn's next Send or SendBatch, which finishes whatever
// TrySend began. Same retention contract as Send. A conn that cannot tell
// without waiting whether a frame went out (a wrapper that holds frames
// back, say) does not implement it.
type TryConn interface {
	TrySend(frames [][]byte) bool
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept returns the next inbound connection.
	Accept() (Conn, error)
	// Addr is the bound address peers dial.
	Addr() string
	// Close stops accepting; pending Accept calls fail.
	Close() error
}

// Network creates listeners and connections within one address family.
type Network interface {
	// Listen binds addr; addr "" or ending in ":0" auto-allocates.
	Listen(addr string) (Listener, error)
	// Dial connects to a listener's address.
	Dial(addr string) (Conn, error)
	// Name identifies the transport ("inproc" or "tcp").
	Name() string
}

// ErrClosed reports use of a closed connection, listener, or node.
var ErrClosed = errors.New("transport: closed")

// ---------------------------------------------------------------------------
// inproc

// inprocFrameBuffer bounds the frames one direction of an in-proc conn holds
// — queued, or taken by the receiver and not yet returned. It plays the role
// of ZeroMQ's high-water mark, a limit and not an allocation: senders block
// when a receiver lags, and an idle conn holds no slots.
const inprocFrameBuffer = 4096

// pipeKeep is the largest backlog array a pipe keeps for reuse once it has
// drained; a burst's larger array goes back to the garbage collector.
const pipeKeep = 64

// Inproc is an in-process Network. Each Inproc instance is an isolated
// namespace: addresses registered on one instance are invisible to others,
// so tests can run many clusters concurrently.
type Inproc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  uint64
}

// NewInproc creates an empty in-process network namespace.
func NewInproc() *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener)}
}

// Name returns "inproc".
func (n *Inproc) Name() string { return "inproc" }

// Listen binds addr in this namespace.
func (n *Inproc) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" || addr == ":0" {
		n.nextAuto++
		addr = fmt.Sprintf("inproc://auto-%d", n.nextAuto)
	}
	if _, taken := n.listeners[addr]; taken {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := &inprocListener{net: n, addr: addr, accept: make(chan Conn, 64), done: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to addr in this namespace.
func (n *Inproc) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no inproc listener at %q", addr)
	}
	// Both ends share the close signal, matching TCP semantics where
	// closing either side unblocks the peer's blocked Recv.
	closed := make(chan struct{})
	a2b, b2a := newPipe(closed), newPipe(closed)
	var once sync.Once
	dialSide := &inprocConn{send: a2b, recv: b2a, closed: closed, once: &once}
	acceptSide := &inprocConn{send: b2a, recv: a2b, closed: closed, once: &once}
	select {
	case l.accept <- acceptSide:
		return dialSide, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

type inprocListener struct {
	net    *Inproc
	addr   string
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

type inprocConn struct {
	send   *pipe
	recv   *pipe
	closed chan struct{}
	once   *sync.Once
}

// pipe is one direction of an in-proc conn: a backlog under a mutex, holding
// storage only while it holds frames, and two one-token channels — ready
// wakes a receiver that found the backlog empty, room a sender that found the
// pipe full. It has one sender at a time and one receiver.
type pipe struct {
	mu     sync.Mutex
	frames [][]byte // queued, oldest first
	out    int      // frames the receiver took at its last swap
	ready  chan struct{}
	room   chan struct{}
	closed <-chan struct{}

	// The receiver's own: the backlog it took at its last swap and how many
	// of those frames it has returned.
	taken [][]byte
	next  int
}

func newPipe(closed <-chan struct{}) *pipe {
	return &pipe{ready: make(chan struct{}, 1), room: make(chan struct{}, 1), closed: closed}
}

// signal leaves a token on ch unless one waits there already. A token is a
// hint: whoever takes it re-checks the state it guards under that state's
// lock.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put queues a copy of each frame if all of them fit under the limit, and
// reports whether they did. Copies, because the caller recycles its buffers
// after a send; they come from the frame pool and the receiving node releases
// them.
func (p *pipe) put(frames ...[]byte) bool {
	p.mu.Lock()
	if len(p.frames)+p.out+len(frames) > inprocFrameBuffer {
		p.mu.Unlock()
		return false
	}
	wake := len(p.frames) == 0
	for _, f := range frames {
		p.frames = append(p.frames, append(wire.GetFrame(len(f)), f...))
	}
	p.mu.Unlock()
	if wake {
		signal(p.ready)
	}
	return true
}

// get returns the next frame: from the backlog taken at the last swap while
// it lasts, then by swapping out the whole backlog, waiting for one if there
// is none. Frames queued before a close are returned before ErrClosed.
func (p *pipe) get() ([]byte, error) {
	for {
		if p.next < len(p.taken) {
			f := p.taken[p.next]
			p.taken[p.next] = nil
			p.next++
			return f, nil
		}
		keep := p.taken[:0]
		if cap(keep) > pipeKeep {
			keep = nil
		}
		p.mu.Lock()
		wasFull := len(p.frames)+p.out >= inprocFrameBuffer
		p.taken, p.frames = p.frames, keep
		p.out, p.next = len(p.taken), 0
		p.mu.Unlock()
		if wasFull {
			signal(p.room)
		}
		if len(p.taken) > 0 {
			continue
		}
		select {
		case <-p.ready:
		case <-p.closed:
			p.mu.Lock()
			queued := len(p.frames)
			p.mu.Unlock()
			if queued == 0 {
				return nil, ErrClosed
			}
		}
	}
}

func (c *inprocConn) Send(frame []byte) error {
	for {
		select {
		case <-c.closed:
			return ErrClosed
		default:
		}
		if c.send.put(frame) {
			return nil
		}
		select {
		case <-c.send.room:
		case <-c.closed:
			return ErrClosed
		}
	}
}

// TrySend implements TryConn: the batch goes out whole or not at all.
func (c *inprocConn) TrySend(frames [][]byte) bool {
	select {
	case <-c.closed:
		return false
	default:
	}
	return c.send.put(frames...)
}

func (c *inprocConn) Recv() ([]byte, error) { return c.recv.get() }

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// ---------------------------------------------------------------------------
// tcp

// TCP is the socket-backed Network. Frames are length-prefixed with a
// uint32, matching the simple framing ElGA layers under its packets.
type TCP struct{}

// NewTCP returns the TCP network.
func NewTCP() *TCP { return &TCP{} }

// Name returns "tcp".
func (t *TCP) Name() string { return "tcp" }

// Listen binds a TCP address; "" means 127.0.0.1:0 (ephemeral).
func (t *TCP) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial connects to a TCP address.
func (t *TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{c: c}
	if sock, ok := c.(*net.TCPConn); ok {
		// Latency matters more than throughput for barrier votes.
		_ = sock.SetNoDelay(true)
		tc.raw, _ = sock.SyscallConn() // without it TrySend declines
	}
	return tc, nil
}

type tcpListener struct {
	l net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{c: c}, nil
}

func (l *tcpListener) Addr() string { return l.l.Addr().String() }
func (l *tcpListener) Close() error { return l.l.Close() }

// maxTCPFrame guards against corrupt length prefixes.
const maxTCPFrame = 64 << 20

// tcpBurst is what one conn buffers in each direction. Reads go through a
// buffer of this size, so one read returns a length prefix, its body and
// every small frame coalesced behind them — a barrier frame is some 60
// bytes, a burst of them far under 4 KiB — while a larger body is read
// straight into its frame. TrySend flattens at most this much into one
// write. Kept small because a cluster holds a conn per ordered pair of
// participants: 64 KiB read buffers cost 17 % more live heap on the
// benchmark's TCP workload, 4 KiB cost 1.5 %.
const tcpBurst = 4 << 10

type tcpConn struct {
	c      net.Conn
	sendMu sync.Mutex
	recvMu sync.Mutex
	closed atomic.Bool

	// Scratch buffers for vectored sends, guarded by sendMu.
	hdrs []byte      // 4-byte length prefixes, one per frame
	vecs net.Buffers // interleaved header/frame io vectors
	one  [1][]byte   // single-frame batch for Send

	// TrySend's state, guarded by sendMu: the dialled socket, its one
	// write attempt (bound once, so a send allocates no closure), the
	// batch flattened for that write, and how many bytes of the batch the
	// next Send or SendBatch begins with are on the wire already.
	raw      syscall.RawConn
	tryWrite func(fd uintptr) bool
	flat     []byte
	sent     int

	// Receive side, guarded by recvMu. Only an accepted conn is read, so
	// the buffer is made by the first Recv.
	br    *bufio.Reader
	reads *atomic.Uint64
}

func (c *tcpConn) Send(frame []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.one[0] = frame
	err := c.sendLocked(c.one[:])
	c.one[0] = nil
	return err
}

// SendBatch implements BatchConn: all frames and their length prefixes go
// out in one writev.
func (c *tcpConn) SendBatch(frames [][]byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.sendLocked(frames)
}

func (c *tcpConn) sendLocked(frames [][]byte) error {
	need := 4 * len(frames)
	if cap(c.hdrs) < need {
		c.hdrs = make([]byte, need)
	}
	// Headers are written into pre-sized scratch (no append) so the
	// sub-slices already queued in vecs stay valid.
	h := c.hdrs[:need]
	vecs := c.vecs[:0]
	for i, f := range frames {
		if len(f) > maxTCPFrame {
			return fmt.Errorf("transport: frame too large (%d bytes)", len(f))
		}
		binary.LittleEndian.PutUint32(h[i*4:], uint32(len(f)))
		vecs = append(vecs, h[i*4:i*4+4], f)
	}
	vv := vecs // WriteTo consumes its receiver; keep vecs intact
	// Skip the part of this batch a TrySend already wrote.
	for c.sent > 0 && len(vv) > 0 {
		if c.sent < len(vv[0]) {
			vv[0] = vv[0][c.sent:]
			c.sent = 0
		} else {
			c.sent -= len(vv[0])
			vv = vv[1:]
		}
	}
	_, err := vv.WriteTo(c.c)
	for i := range vecs {
		vecs[i] = nil // drop frame references: they are recycled after Send
	}
	c.vecs = vecs[:0]
	return err
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.br == nil {
		c.br = bufio.NewReaderSize(c, tcpBurst)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxTCPFrame {
		return nil, fmt.Errorf("transport: oversized frame (%d bytes)", n)
	}
	frame := wire.GetFrame(int(n))[:n]
	if _, err := io.ReadFull(c.br, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// countReads has every socket read of c counted in total from now on.
func (c *tcpConn) countReads(total *atomic.Uint64) {
	c.recvMu.Lock()
	c.reads = total
	c.recvMu.Unlock()
}

// Read is the socket as Recv's buffer reads it: one read call on the conn,
// counted if a node asked.
func (c *tcpConn) Read(p []byte) (int, error) {
	n, err := c.c.Read(p)
	if c.reads != nil {
		c.reads.Add(1)
	}
	return n, err
}

func (c *tcpConn) Close() error {
	c.closed.Store(true)
	return c.c.Close()
}
