package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// host is the record of the machine a result came from. Host speed drifts
// from one run to the next, so a number without it cannot be compared.
type host struct {
	Label      string `json:"label"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

// hostRecord describes this host. The label is $PERFBENCH_HOST, or the
// hostname when that is unset.
func hostRecord() host {
	label := os.Getenv("PERFBENCH_HOST")
	if label == "" {
		label, _ = os.Hostname()
	}
	return host{
		Label:      label,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
