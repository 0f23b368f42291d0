package serve

import "syscall"

// yieldCPU hands the spinning thread's core to a thread the kernel has
// waiting for it. runtime.Gosched alone keeps the spinner's processor busy,
// so it never idles to steal a caller queued behind a descheduled thread.
// On the 2-vCPU reference box beside a concurrent `go test ./internal/core/`
// that split the straggler tests' closed-loop batches in 6–7 % of runs; with
// this yield, in 1 of 500. Elsewhere the hold spins on Gosched alone.
func yieldCPU() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
