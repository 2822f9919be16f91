package runstate

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// ErrInterrupted marks a run cut short by SIGINT/SIGTERM (or a cancelled
// context) whose completed work is journaled and resumable. Commands map
// it to ExitInterrupted so scripts can distinguish "re-run me with
// -resume" from a real failure.
var ErrInterrupted = errors.New("interrupted, resumable")

// ExitInterrupted is the process exit status for a gracefully
// interrupted, resumable run (130 = 128+SIGINT by shell convention,
// distinct from the generic failure status 1).
const ExitInterrupted = 130

// Interrupted reports whether err is (or wraps) an interruption: the
// graceful-shutdown sentinel or a context cancellation/deadline.
func Interrupted(err error) bool {
	return errors.Is(err, ErrInterrupted) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// ParseFlags parses a command's args into fs without printing usage on
// a parse error: the error is returned for the command to report, and
// it exits 1. -h or -help instead writes the flag list to out and
// reports help with a nil error, so the command returns nil and exits
// 0 — the help text is an operator's list of every flag.
func ParseFlags(fs *flag.FlagSet, args []string, out io.Writer) (help bool, err error) {
	fs.SetOutput(io.Discard)
	if err = fs.Parse(args); !errors.Is(err, flag.ErrHelp) {
		return false, err
	}
	fs.SetOutput(out)
	fs.PrintDefaults()
	return true, nil
}

// TrapSignals returns a child context cancelled on the first SIGINT or
// SIGTERM, so in-flight work drains cooperatively and journals commit. A
// second signal force-exits with ExitInterrupted for operators who need
// out now. stop releases the handlers; fired reports whether a signal
// arrived.
func TrapSignals(parent context.Context) (ctx context.Context, stop func(), fired func() bool) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	released := make(chan struct{})
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	var hit atomic.Bool
	go func() {
		select {
		case <-ch:
			hit.Store(true)
			cancel()
		case <-released:
			return
		}
		select {
		case <-ch: // a second signal skips the graceful drain
			os.Exit(ExitInterrupted)
		case <-released:
		}
	}()
	var once atomic.Bool
	stop = func() {
		if once.CompareAndSwap(false, true) {
			signal.Stop(ch)
			close(released)
		}
		cancel()
	}
	return ctx, stop, hit.Load
}
