//go:build !(linux && amd64)

package main

// keepAwake does nothing off linux/amd64: the spinners need SCHED_IDLE and a
// PAUSE instruction (awake_linux_amd64.go), and numbers from another kind of
// machine are not comparable with the recorded ones anyway.
func keepAwake() (stop func(), err error) { return func() {}, nil }

func idleSpin(int) {}
