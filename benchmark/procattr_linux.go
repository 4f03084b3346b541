package main

import "syscall"

// childAttr makes the kernel kill a child when the benchmark dies
// without running its clean-up (a panic, a driver's SIGKILL), so no
// server is ever left behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
