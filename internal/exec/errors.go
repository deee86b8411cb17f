// The exec package is an error boundary: every error it returns must be a
// typed sentinel, a *QueryError, or wrap one via %w, so the serving layer's
// status classification never falls through to a generic 500. Enforced by
// the typederr analyzer (cmd/inklint).
//
//inklint:errorboundary

package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"inkfuse/internal/rt"
)

// Typed query-failure causes. Callers classify failures with errors.Is: a
// returned error wraps exactly one of these (or none for plain setup
// errors), usually inside a *QueryError carrying the failure location.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = errors.New("inkfuse: query canceled")
	// ErrDeadlineExceeded reports that the query's context deadline passed.
	ErrDeadlineExceeded = errors.New("inkfuse: query deadline exceeded")
	// ErrMemoryBudget reports that the query hit Options.MemoryBudget.
	ErrMemoryBudget = errors.New("inkfuse: query memory budget exceeded")
	// ErrPanic reports a panic recovered inside query execution. The process
	// and other queries are unaffected; the *QueryError carries the stack.
	ErrPanic = errors.New("inkfuse: query panicked")
	// ErrUnknownBackend reports a backend name or value outside the four
	// execution backends. The serving layer classifies it as a client error.
	ErrUnknownBackend = errors.New("inkfuse: unknown backend")
	// ErrInvalidPlan reports a structurally broken plan the executor meets:
	// an unknown source type or a read of an unbuilt aggregate. Callers that
	// want the full structural check run core.VerifyPlan before executing
	// (the server does so once per plan, at lowering).
	ErrInvalidPlan = errors.New("inkfuse: invalid plan")
)

// QueryError is a query-scoped failure: which query, pipeline, backend,
// worker, and morsel failed, and why. It wraps the typed cause, so
// errors.Is(err, exec.ErrMemoryBudget) etc. see through it.
type QueryError struct {
	Query    string
	Pipeline string
	Backend  Backend
	// Worker and Morsel locate the failure; -1 when it happened outside the
	// morsel loop (e.g. pipeline finalization).
	Worker int
	Morsel int
	// Stack is the goroutine stack of a recovered panic ("" otherwise).
	Stack string
	Err   error
}

func (e *QueryError) Error() string {
	loc := e.Query
	if e.Pipeline != "" {
		loc += "/" + e.Pipeline
	}
	if e.Morsel >= 0 {
		return fmt.Sprintf("exec: query %s (%s backend, worker %d, morsel %d): %v",
			loc, e.Backend, e.Worker, e.Morsel, e.Err)
	}
	return fmt.Sprintf("exec: query %s (%s backend): %v", loc, e.Backend, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// ctxCause maps a context error onto the engine's typed errors while keeping
// the original context error visible to errors.Is.
func ctxCause(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// admissionError maps a scheduler admission failure onto the engine's typed
// errors: context expiry while queued becomes ErrCanceled /
// ErrDeadlineExceeded (the query never ran), scheduler rejections
// (sched.ErrQueueFull, sched.ErrDraining, sched.ErrOverCapacity) pass
// through for the serving layer to classify.
func admissionError(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ctxCause(err)
	}
	return err
}

// panicError completes qe, which the caller has located, from a recovered
// panic value. Memory-budget panics are expected control flow (rt.MemBudget
// cannot return errors through generated code) and map to ErrMemoryBudget;
// anything else is a genuine bug in query code, maps to ErrPanic and keeps the
// goroutine stack.
func panicError(qe *QueryError, rec any) error {
	switch v := rec.(type) {
	case *rt.BudgetExceeded:
		qe.Err = fmt.Errorf("%w: %v", ErrMemoryBudget, v)
		return qe
	case error:
		qe.Err = fmt.Errorf("%w: %w", ErrPanic, v)
	default:
		qe.Err = fmt.Errorf("%w: %v", ErrPanic, rec)
	}
	qe.Stack = string(debug.Stack())
	return qe
}
