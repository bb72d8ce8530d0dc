package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// setProcessAffinity applies m to every thread of this process.
// Threads started meanwhile inherit their creator's mask, so the task
// list is walked until a pass finds nothing new.
func setProcessAffinity(m cpuMask) error {
	done := map[int]bool{}
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := 0
		for _, ent := range ents {
			tid, err := strconv.Atoi(ent.Name())
			if err != nil || done[tid] {
				continue
			}
			// A thread may exit between listing and setting (ESRCH).
			if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
			done[tid] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}

// pinToOneCPU confines this process, and so every child it starts
// afterwards, to the highest-numbered CPU it may use, and returns that
// CPU and a function that lifts the restriction again.
//
// The serving workloads run this way because on this kind of box — a
// small VM on a shared host — a request that hops between vCPUs pays an
// inter-processor wake-up whose cost is set by the hypervisor and its
// other tenants, not by the program: free-running, solo p50 moved 25%
// between identical runs and halved when the other vCPU was kept from
// halting. On one CPU the generator and the servers time-slice, a
// request costs the CPU work along its path plus context switches, and
// identical runs agree within a few percent. The other CPU is left to
// the kernel's own threads and whatever else the box is doing.
func pinToOneCPU() (cpu int, restore func(), err error) {
	orig, err := getAffinity(0)
	if err != nil {
		return 0, nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu = -1
	for i := len(orig)*64 - 1; i >= 0; i-- {
		if orig[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, nil, fmt.Errorf("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setProcessAffinity(one); err != nil {
		return 0, nil, err
	}
	procs := runtime.GOMAXPROCS(1) // one CPU: a second P would only add thread switches
	return cpu, func() {
		runtime.GOMAXPROCS(procs)
		setProcessAffinity(orig)
	}, nil
}
