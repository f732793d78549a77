package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// A workload paced by timers leaves the process idle most of the time,
// and what a wake-up costs is then the runtime's and the host's business,
// not the program's. With several Ps every readied goroutine wakes another
// thread, which spins for work and parks again. An idle virtual CPU halts,
// and halting, stopping and restarting the tick and being woken again are
// exits to the host, whose price depends on the host's other tenants. All
// of that lands in the process's CPU time: cpu_us_per_item of fleet-churn
// read 62 us in one session and 87 us in another on the same binary while
// collatz-small, which never idles, read 38 us in both, and its middle
// half spread over a third of the median in the driver's runs. For such a
// workload (workload.quiet) the benchmark therefore runs on one P and
// keeps every CPU awake with a spinner process at SCHED_IDLE, the priority
// that runs only when nothing else wants the CPU and is preempted the
// moment a benchmark thread wakes. The spinners are separate processes, so
// their CPU time is not in the benchmark's getrusage.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spin is the spinner: it drops every one of its threads to idle priority
// (a thread started later inherits it) and spins until its standard input
// closes, which happens when the parent closes the pipe or dies in any
// way.
func spin() {
	runtime.GOMAXPROCS(1)
	tasks, _ := os.ReadDir("/proc/self/task")
	for _, t := range tasks {
		tid, _ := strconv.Atoi(t.Name())
		var param struct{ priority int32 }
		if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
			// Without SCHED_IDLE the lowest nice level is the nearest thing.
			_ = syscall.Setpriority(syscall.PRIO_PROCESS, tid, 19)
		}
	}
	go func() {
		for {
		}
	}()
	_, _ = io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}

// keepAwake starts one spinner per CPU and returns the function that
// stops them and waits until each has ended.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var children []child
	stop = func() {
		for _, c := range children {
			_ = c.stdin.Close()
			_ = c.cmd.Process.Kill()
		}
		for _, c := range children {
			_ = c.cmd.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "-spin")
		stdin, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("starting a spinner: %w", err)
		}
		children = append(children, child{cmd, stdin})
	}
	return stop, nil
}

// settle puts the process into the state a quiet workload asks for and
// returns the function that undoes it, which may be called more than once.
func settle(w runner) (release func(), err error) {
	if !w.Quiet() {
		return func() {}, nil
	}
	stop, err := keepAwake()
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			runtime.GOMAXPROCS(procs)
			stop()
		})
	}, nil
}
