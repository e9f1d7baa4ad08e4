package transport

import (
	"errors"
	"fmt"
)

// Typed error taxonomy for the failure domain. Every terminal transport
// failure wraps one of these sentinels so call sites can branch with
// errors.Is instead of string matching:
//
//   - ErrTimeout: a bounded wait (REQ/REP reply, flush) expired.
//   - ErrNodeClosed: this node was closed; nothing further can succeed.
//   - ErrPeerClosed: the peer-side endpoint is gone; a retry may reach a
//     replacement (or a redial may succeed after churn).
//   - ErrUnavailable: a resource is not ready yet; retrying is expected
//     to succeed (bootstrap races, saturated queues).
//
// ErrNodeClosed and ErrPeerClosed wrap ErrClosed, so legacy
// errors.Is(err, ErrClosed) checks keep working.
var (
	ErrTimeout     = errors.New("transport: timed out")
	ErrNodeClosed  = fmt.Errorf("transport: node %w", ErrClosed)
	ErrPeerClosed  = fmt.Errorf("transport: peer %w", ErrClosed)
	ErrUnavailable = errors.New("transport: unavailable")
)
