package main

import (
	"bufio"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostRecord describes the machine a report was measured on. Rates in
// the report are totals over the whole run; per-core figures divide by
// Cores, the CPUs the run could actually use.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Cores      int    `json:"cores"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func readHost() hostRecord {
	h := hostRecord{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  goruntime.Version(),
		OS:         goruntime.GOOS,
		Arch:       goruntime.GOARCH,
	}
	h.Cores = min(h.NProc, h.GOMAXPROCS)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes reads the aggregate CPU line of /proc/stat: total jiffies
// and those stolen by the hypervisor for other guests.
func cpuTimes() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealShare returns a function that reports the share of CPU time the
// hypervisor gave to other guests since stealShare was called, or -1
// where /proc/stat cannot tell. A busy host shows up here before it
// shows up as a slower run.
func stealShare() func() float64 {
	t0, s0, ok0 := cpuTimes()
	return func() float64 {
		t1, s1, ok1 := cpuTimes()
		if !ok0 || !ok1 || t1 <= t0 {
			return -1
		}
		return float64(s1-s0) / float64(t1-t0)
	}
}

// peakRSSMB returns the process's peak resident set size in MiB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
