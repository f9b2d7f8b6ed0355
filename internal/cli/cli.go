// Package cli holds the error-reporting conventions shared by every
// command in this repository: failures go to stderr, prefixed with the
// command name, and the process exits non-zero. Centralizing the helper
// keeps the seven commands' behavior identical (and testable by grep:
// no command formats its own fatal error).
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// RunContext is a command's run context: SIGINT and SIGTERM cancel it,
// and so does the deadline when it is nonzero, the -deadline of vaxsim,
// vaxfarm and vaxrepro. stop releases both.
func RunContext(deadline time.Duration) (ctx context.Context, stop func()) {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if deadline <= 0 {
		return ctx, stopSignals
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	return ctx, func() { cancel(); stopSignals() }
}

// Exitf reports a fatal error on stderr as "name: message" and exits
// with the given code.
func Exitf(code int, name, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", name, fmt.Sprintf(format, args...))
	os.Exit(code)
}

// Fatalf is Exitf with the conventional exit code 1.
func Fatalf(name, format string, args ...any) {
	Exitf(1, name, format, args...)
}

// Check is Fatalf on a non-nil error, a no-op otherwise.
func Check(name string, err error) {
	if err != nil {
		Fatalf(name, "%v", err)
	}
}
