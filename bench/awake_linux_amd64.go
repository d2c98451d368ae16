package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's box is a two-vCPU guest on a shared host, and what the host
// does with a vCPU that halts is the largest source of run-to-run noise there
// (measured, README.md): waking it costs up to the length of a small request,
// and runs whose vCPUs halt now and then fall, for minutes at a time, into a
// state where everything is 1.4–1.9× slower, which runs whose vCPUs never
// halt stayed out of. So while a workload runs, every CPU has a process of
// scheduling class SCHED_IDLE spinning on it: the guest's scheduler runs it
// only when nothing else wants the CPU and takes the CPU away the instant
// something does, and the host sees two vCPUs that never halt.

// spinnerLife bounds a spinner that somehow outlives every other safeguard.
const spinnerLife = 10 * time.Minute

// keepAwake starts one spinner per CPU and returns the function that stops
// them and waits until they have ended. A spinner is this binary run with
// -idle-spin; it exits when its standard input closes, so it cannot outlive
// the benchmark however the benchmark dies.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var kids []*exec.Cmd
	var leashes []io.Closer
	stop = func() {
		for _, l := range leashes {
			l.Close()
		}
		for _, k := range kids {
			k.Wait()
		}
	}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		kid := exec.Command(self, "-idle-spin", strconv.Itoa(cpu))
		kid.Stderr = os.Stderr
		leash, err := kid.StdinPipe()
		if err == nil {
			err = kid.Start()
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		kids, leashes = append(kids, kid), append(leashes, leash)
	}
	return stop, nil
}

// pause executes n PAUSE instructions: a spin-wait that leaves the core's
// execution units to the other hyperthread.
func pause(n int)

// idleSpin is the spinner: it pins its thread to one CPU, drops it to
// SCHED_IDLE and spins, offering the CPU back every microsecond or so, until
// standard input closes. If it cannot drop its priority it exits at once
// rather than compete with the benchmark.
func idleSpin(cpu int) {
	runtime.LockOSThread()
	const schedIdle = 5
	var mask [16]uint64
	mask[cpu/64%len(mask)] = 1 << (cpu % 64)
	var param int32 // sched_priority, 0 for SCHED_IDLE
	_, _, e1 := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	_, _, e2 := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	if e1 != 0 || e2 != 0 {
		fmt.Fprintf(os.Stderr, "bench: spinner %d not started: affinity %v, SCHED_IDLE %v\n", cpu, e1, e2)
		return
	}
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for born := time.Now(); time.Since(born) < spinnerLife; {
		for i := 0; i < 1000; i++ {
			pause(20)
			syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
	}
}
