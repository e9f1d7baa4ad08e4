package client

import (
	"errors"
	"fmt"

	"elga/internal/transport"
)

// Typed error taxonomy for the client. Every exported call returns an
// *OpError wrapping the underlying cause, so call sites branch with
// errors.Is/errors.As against the transport and wire sentinels instead
// of string matching:
//
//	var oe *client.OpError
//	if errors.As(err, &oe) { handleFailedOp(oe.Op) }
//	if errors.Is(err, transport.ErrTimeout) { retryLater() }
//
// Failures are also journalled through the events API when enabled: each
// retried attempt emits a "retry" event and each final failure an
// "op-error" event, shipped to the coordinator timeline and correlated
// with the most recent run's trace context — so client-visible errors
// appear on the same causal axis as the cluster's own decisions.
var (
	// ErrNoAgents means the installed view has no agent able to serve
	// the call yet.
	ErrNoAgents = fmt.Errorf("no agents: %w", transport.ErrUnavailable)
	// ErrUnknownProgram means a run named no registered vertex program;
	// it is refused before anything is sent.
	ErrUnknownProgram = errors.New("unknown program")
)

// OpError is the uniform error every client operation returns: the
// operation label plus the underlying cause, which unwraps to a transport
// or wire sentinel or to one of the sentinels above.
type OpError struct {
	// Op names the failing operation ("bootstrap", "seal", "run wcc",
	// "query 42", ...).
	Op string
	// Err is the cause.
	Err error
}

func (e *OpError) Error() string { return "client: " + e.Op + ": " + e.Err.Error() }

func (e *OpError) Unwrap() error { return e.Err }

// opError wraps err into the taxonomy, passing nil through.
func opError(opName string, err error) error {
	if err == nil {
		return nil
	}
	return &OpError{Op: opName, Err: err}
}
