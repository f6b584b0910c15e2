package core

import (
	"errors"
	"syscall"
	"time"
)

// ErrSenderAborted is returned (wrapped) by Run when one or more sender
// threads exhausted their restart budget on fatal transport errors. The
// scan still completes its cooldown, writes its final exact checkpoint
// (when Config.CheckpointPath is set), emits metadata, and closes the
// results stream, so resuming that checkpoint finishes the scan.
var ErrSenderAborted = errors.New("core: sender aborted after fatal transport error")

// transientError is the structural contract a transport error can
// implement to classify itself. netsim.SendError implements it.
type transientError interface {
	Transient() bool
}

// transientErrnos are kernel send errors ZMap treats as retryable: a
// full socket buffer (the classic ENOBUFS from zmap's send_run loop),
// a would-block on a nonblocking socket, an interrupted syscall, and
// transient memory pressure. Anything else (ENETDOWN, EBADF, EIO, ...)
// means the interface or socket is gone and retrying cannot help.
var transientErrnos = []syscall.Errno{
	syscall.ENOBUFS,
	syscall.EAGAIN,
	syscall.EINTR,
	syscall.ENOMEM,
}

// IsTransientSendError reports whether a SendBatch failure is worth
// retrying. An error that implements Transient() bool (anywhere in its
// chain) speaks for itself; otherwise the errno whitelist decides.
func IsTransientSendError(err error) bool {
	var te transientError
	if errors.As(err, &te) {
		return te.Transient()
	}
	for _, errno := range transientErrnos {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// backoffFor returns the sleep before retry attempt (0-based): the base
// doubled per attempt, capped at 64x. With the 1ms default that is
// 1, 2, 4, ..., 64, 64, ... ms — the same bounded-exponential shape
// ZMap applies to ENOBUFS.
func backoffFor(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if attempt > 6 {
		attempt = 6
	}
	return base << uint(attempt)
}

// sendOutcome classifies how flushBatch and retryFrame left a frame.
type sendOutcome int

const (
	sendOK       sendOutcome = iota // transport accepted the frame
	sendDropped                     // transient errors exhausted the retry budget
	sendCanceled                    // context died mid-retry
	sendFatal                       // non-transient transport error
)
