package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord is printed with every output: a figure from this
// benchmark names the machine, the parallelism and the transport it
// was taken on.
type hostRecord struct {
	CPUModel   string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Kernel     string
	Clients    int
}

func readHost() hostRecord {
	h := hostRecord{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close() //nolint:errcheck // read-only
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	h.Clients = h.NumCPU
	if h.Clients > maxClients {
		h.Clients = maxClients
	}
	return h
}

// validate refuses hosts on which the numbers would not mean what the
// README says they mean: the server and the load generator share one
// process, so fewer than two CPUs serializes them, and an
// oversubscribed GOMAXPROCS measures the OS scheduler.
func (h hostRecord) validate() error {
	if h.NumCPU < 2 {
		return fmt.Errorf("void: nproc = %d, need at least 2 (server and load generator share the process)", h.NumCPU)
	}
	if h.GOMAXPROCS > h.NumCPU {
		return fmt.Errorf("void: GOMAXPROCS = %d exceeds nproc = %d", h.GOMAXPROCS, h.NumCPU)
	}
	return nil
}

func (h hostRecord) String() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s clients=%d",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Clients)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) //nolint:errcheck // 0 on a malformed line
				return kb / 1024
			}
		}
	}
	return 0
}
