package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts describes the machine a result was measured on; numbers
// from different hosts are not comparable.
type hostFacts struct {
	NProc      int
	GoMaxProcs int
	GoVersion  string
	CPUModel   string
	Caches     []string // "L2 Unified 2560K", one per cache of cpu0
	// LLCBytes is the size of the highest-level cache (0 if unknown).
	LLCBytes int64
}

func readHost() hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // no sysfs: caches stay unknown
	maxLevel := 0
	for _, d := range dirs {
		level, size := sysString(d, "level"), sysString(d, "size")
		if level == "" || size == "" {
			continue
		}
		h.Caches = append(h.Caches, fmt.Sprintf("L%s %s %s", level, sysString(d, "type"), size))
		if n, _ := strconv.Atoi(level); n > maxLevel { // unparsable level: not the last one
			maxLevel, h.LLCBytes = n, parseSize(size)
		}
	}
	return h
}

func sysString(dir, name string) string {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// parseSize reads sysfs cache sizes such as "2560K" or "54M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.ParseInt(s, 10, 64) // unparsable: size unknown (0)
	return n * mult
}

func (h hostFacts) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q caches=[%s]",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.CPUModel, strings.Join(h.Caches, ", "))
}

// peakRSSMB returns this process's resident-set high-water mark (VmHWM)
// in MiB. Each workload runs in its own process, so the mark is the
// workload's own.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
