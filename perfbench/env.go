package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// envStamp records where a run was measured, so that a slow sample on a
// shared host can be explained: the toolchain, the CPUs the process could
// use, and the share of host CPU time stolen by other guests while the
// workload ran (from /proc/stat).
type envStamp struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	StealShare float64 `json:"steal_share"`
	UserShare  float64 `json:"user_share"`

	stat0 []uint64
}

func readEnv() *envStamp {
	return &envStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		stat0:      procStat(),
	}
}

// finish fills the shares of host CPU time since readEnv.
func (e *envStamp) finish() envStamp {
	s1 := procStat()
	out := *e
	out.stat0 = nil
	out.StealShare = stealShare(e.stat0, s1)
	if len(e.stat0) >= 8 && len(s1) >= 8 {
		var total uint64
		for i := 0; i < 8; i++ { // guest time is already counted in user
			total += s1[i] - e.stat0[i]
		}
		out.UserShare = ratio(float64(s1[0]-e.stat0[0]+s1[1]-e.stat0[1]), float64(total))
	}
	return out
}

// procStat returns the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ... in clock ticks.
func procStat() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		var v []uint64
		for _, x := range fields[1:] {
			n, err := strconv.ParseUint(x, 10, 64)
			if err != nil {
				return nil
			}
			v = append(v, n)
		}
		return v
	}
	return nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
