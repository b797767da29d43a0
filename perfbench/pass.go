package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workload"
)

// passReport is what one untraced pass reports to the parent process.
// Each pass runs in a process of its own, so its peak resident memory
// and CPU time are the pass's alone and every pass starts as cold as a
// cmd/tables invocation does.
type passReport struct {
	// StartUnixNano is the wall-clock instant the timed pass began; the
	// parent subtracts its spawn instant to get the set-up time.
	StartUnixNano int64   `json:"start_unix_nano"`
	WallS         float64 `json:"wall_s"`
	CPUS          float64 `json:"cpu_s"`
	MaxRSSKB      int64   `json:"max_rss_kb"`
	Err           string  `json:"err,omitempty"`
	Digest        string  `json:"digest"`
	// Branches sums the dynamic conditional branches of the streams the
	// suite cached; Cached counts those streams.
	Branches uint64 `json:"branches"`
	Cached   int    `json:"cached"`
	// Profiled lists the streams whose cached artifacts hold a profile.
	Profiled []string `json:"profiled"`
	Output   string   `json:"output,omitempty"`
}

// runPass is the child side of an untraced pass: a fresh suite with the
// harness's default configuration, one call into the workload's harness
// entry point, and the process's own resource accounting around it.
func runPass(w benchWorkload, withOutput bool) passReport {
	clock := obs.SystemClock()
	suite := harness.NewSuite(w.config())
	var out bytes.Buffer
	cpu0 := cpuSeconds()
	start := clock.Now()
	err := w.run(suite, &out)
	wall := clock.Now().Sub(start)
	cpu1 := cpuSeconds()

	sum := sha256.Sum256(out.Bytes())
	r := passReport{
		StartUnixNano: start.UnixNano(),
		WallS:         wall.Seconds(),
		CPUS:          cpu1 - cpu0,
		MaxRSSKB:      maxRSSKB(),
		Digest:        hex.EncodeToString(sum[:]),
	}
	if err != nil {
		r.Err = err.Error()
	}
	if withOutput {
		r.Output = out.String()
	}
	if w.plan.graphs {
		for _, name := range workload.GraphNames() {
			if a, ok := suite.GraphCached(name); ok {
				r.Branches += a.Stats.CondBranches
				r.Cached++
				if a.Profile != nil {
					r.Profiled = append(r.Profiled, name)
				}
			}
		}
		return r
	}
	for _, s := range w.plan.streams() {
		if a, ok := suite.Cached(s.name, s.input); ok {
			r.Branches += a.VMStats.CondBranches
			r.Cached++
			if a.Profile != nil {
				r.Profiled = append(r.Profiled, s.name+"/"+s.input.Name)
			}
		}
	}
	return r
}

// spawn runs this binary as a child in the given mode and decodes the
// JSON line it prints. It returns the wall-clock spawn instant as well,
// so the caller can measure the child's set-up time.
func spawn(args ...string) (passReport, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return passReport{}, 0, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	spawned := obs.SystemClock().Now().UnixNano()
	stdout, err := cmd.Output()
	if err != nil {
		return passReport{}, 0, fmt.Errorf("child %v: %w", args, err)
	}
	var r passReport
	if err := json.Unmarshal(stdout, &r); err != nil {
		return passReport{}, 0, fmt.Errorf("child %v: decoding report: %w", args, err)
	}
	return r, spawned, nil
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// maxRSSKB returns the process's peak resident set size in KiB.
func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}
