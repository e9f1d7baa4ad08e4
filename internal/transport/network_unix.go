//go:build unix

package transport

import (
	"encoding/binary"
	"syscall"
)

// TrySend implements TryConn: prefixes and frames, flattened, go out in one
// write call that does not wait for room in the socket buffer. A batch over
// tcpBurst is declined untouched — the vectored write copies nothing and is
// the writer goroutine's. What a short write leaves, the next Send or
// SendBatch finishes.
func (c *tcpConn) TrySend(frames [][]byte) bool {
	if c.raw == nil {
		return false
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	buf := c.flat[:0]
	for _, f := range frames {
		if len(buf)+4+len(f) > tcpBurst {
			return false
		}
		buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(f))), f...)
	}
	c.flat = buf
	if c.tryWrite == nil {
		c.tryWrite = c.writeFlat
	}
	if err := c.raw.Write(c.tryWrite); err != nil || c.sent < 0 {
		c.sent = 0 // nothing went out: closed, or the socket buffer is full
	}
	if c.sent == len(buf) {
		c.sent = 0
		return true
	}
	return false
}

// writeFlat is RawConn.Write's callback. Returning true ends the call after
// one attempt: a full socket buffer is the writer goroutine's to wait on.
func (c *tcpConn) writeFlat(fd uintptr) bool {
	c.sent, _ = syscall.Write(int(fd), c.flat)
	return true
}
