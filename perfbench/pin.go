package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// On a machine with few CPUs, the generator and the server process are
// pinned to disjoint halves of them, so neither's threads land on the
// other's CPUs: the server gets the upper half, the generator the
// lower. With one CPU nothing is pinned.

// cpuHalf returns the CPUs of the lower or upper half.
func cpuHalf(upper bool) []int {
	n := runtime.NumCPU()
	if n < 2 {
		return nil
	}
	lo, hi := 0, n/2
	if upper {
		lo, hi = n/2, n
	}
	cpus := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		cpus = append(cpus, c)
	}
	return cpus
}

// pinSelf restricts every thread of this process to cpus. Threads the
// runtime starts later inherit the mask from the thread that starts
// them, and every thread has it.
func pinSelf(cpus []int) error {
	if len(cpus) == 0 {
		return nil
	}
	var mask [16]uint64 // 1024 CPUs
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	tids, err := threadIDs()
	if err != nil {
		return err
	}
	for _, tid := range tids {
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
		if errno != 0 && errno != syscall.ESRCH {
			return errno
		}
	}
	return nil
}
