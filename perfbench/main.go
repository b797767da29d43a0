// Command perfbench is the repository's benchmark. It runs one workload
// end to end through the harness entry points cmd/tables calls, checks
// the rendered output against a reference digest, and prints the
// end-to-end metrics; with -trace 1 it instead drives the same work
// stage by stage through each layer and prints per-layer metrics. See
// README.md in this directory.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

const (
	// minPasses is the fewest untraced passes a run times, whatever
	// -seconds says. Peak RSS of a paper pass is bimodal (about 660 or
	// 720 MB, depending on GC timing), and five passes keep the run's
	// median in the common mode far more often than three.
	minPasses = 5
	// setupProbes is how many extra set-up-only children a run starts
	// to measure set-up time.
	setupProbes = 25
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (paper, census, graph-zoo)")
		seed    = flag.Uint64("seed", 1, "seed of the traced pass's held-out inputs")
		seconds = flag.Int("seconds", 20, "how long a run measures, in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		child   = flag.String("child", "", "internal: run as a child process (pass, output or setup)")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(2, err)
	}
	if *traced != 0 && *traced != 1 {
		fail(2, fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	if *seconds < 1 {
		fail(2, fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fail(2, fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs this process may use; refusing to measure an oversubscribed run", procs, cpus))
	}

	switch *child {
	case "":
	case "setup":
		harness.NewSuite(w.config())
		writeJSON(os.Stdout, passReport{StartUnixNano: obs.SystemClock().Now().UnixNano()})
		return
	case "pass", "output":
		writeJSON(os.Stdout, runPass(w, *child == "output"))
		return
	default:
		fail(2, fmt.Errorf("unknown -child mode %q", *child))
	}

	writeJSON(os.Stdout, map[string]any{"fingerprint": takeFingerprint(w, *seed, *seconds, *traced)})
	var res result
	if *traced == 1 {
		res, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = runUntraced(w, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fail(1, err)
	}
	writeJSON(os.Stdout, res)
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(code)
}

func writeJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(1, err)
	}
	if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
		fail(1, err)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passFailed reports whether an untraced pass errored or rendered
// anything other than the reference output.
func passFailed(w benchWorkload, r passReport, digest string) bool {
	if r.Err != "" || r.Digest != digest {
		return true
	}
	// Every stream the pass cached must add up to the reference count.
	return r.Cached == w.plan.streamCount() && r.Branches != w.branches
}

// corrupt returns the digest with its last hex digit changed.
func corrupt(digest string) string {
	last := "0"
	if strings.HasSuffix(digest, "0") {
		last = "1"
	}
	return digest[:len(digest)-1] + last
}

// setupTimes measures set-up time in extra children that set up and
// exit: process start, package initialisation and suite construction.
func setupTimes(w benchWorkload) ([]float64, error) {
	var out []float64
	for i := 0; i < setupProbes; i++ {
		r, spawned, err := spawn("-workload", w.name, "-child", "setup")
		if err != nil {
			return nil, err
		}
		out = append(out, float64(r.StartUnixNano-spawned)/1e9)
	}
	return out, nil
}

func runUntraced(w benchWorkload, budget time.Duration) (result, error) {
	setups, err := setupTimes(w)
	if err != nil {
		return result{}, err
	}
	clock := obs.SystemClock()
	start := clock.Now()
	var walls, rates, cpus, rss []float64
	res := result{Correct: true}
	corruptFailed := 0
	for len(walls) < minPasses || clock.Now().Sub(start) < budget {
		r, spawned, err := spawn("-workload", w.name, "-child", "pass")
		if err != nil {
			return result{}, err
		}
		setups = append(setups, float64(r.StartUnixNano-spawned)/1e9)
		walls = append(walls, r.WallS)
		rates = append(rates, float64(w.branches)/1e6/r.WallS)
		cpus = append(cpus, r.CPUS)
		rss = append(rss, float64(r.MaxRSSKB)/1024)
		res.Attempted++
		if passFailed(w, r, w.digest) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s pass failed: err=%q digest=%s (want %s) branches=%d over %d streams (want %d)\n",
				w.name, r.Err, r.Digest, w.digest, r.Branches, r.Cached, w.branches)
		}
		// Negative control: against a corrupted reference every pass
		// must count as failed.
		if passFailed(w, r, corrupt(w.digest)) {
			corruptFailed++
		}
	}
	if corruptFailed != res.Attempted {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: negative control: a corrupted reference digest failed %d of %d passes\n", corruptFailed, res.Attempted)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Metrics = map[string]metric{
		"wall_s":          {median(walls), "s"},
		"mbranches_per_s": {median(rates), "Mbranch/s"},
		"cpu_s":           {median(cpus), "s"},
		"peak_rss_mb":     {median(rss), "MB"},
		"setup_s":         {median(setups), "s"},
		"ok_frac":         {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
	}
	return res, nil
}

func runTraced(w benchWorkload, seed uint64, budget time.Duration) (result, error) {
	clock := obs.SystemClock()
	start := clock.Now()
	res := result{Correct: true}
	var reps []map[string]metric
	var last *tracedPass
	var untraced passReport
	var mirrored bool
	for len(reps) == 0 || clock.Now().Sub(start) < budget {
		r, _, err := spawn("-workload", w.name, "-child", "output")
		if err != nil {
			return result{}, err
		}
		res.Attempted++
		if passFailed(w, r, w.digest) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s untraced pass failed: err=%q digest=%s\n", w.name, r.Err, r.Digest)
		}
		profiled := make(map[string]bool, len(r.Profiled))
		for _, key := range r.Profiled {
			profiled[key] = true
		}
		p := newTracedPass(w, profiled, nil)
		wall, err := p.run()
		res.Attempted++
		if err == nil {
			err = mirror(p.tables, r.Output)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s traced pass does not mirror the harness: %v\n", w.name, err)
		}
		reps = append(reps, layerMetrics(p, wall, r))
		last, untraced, mirrored = p, r, err == nil
	}

	// Negative control: once a traced pass mirrors the harness, the same
	// result altered on purpose must fail the mirror check.
	if mirrored {
		last.alter()
		if mirror(last.tables, untraced.Output) == nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: negative control: an altered traced result passed the mirror check")
		}
	}

	// The same stages on held-out inputs derived from the seed.
	heldout := newTracedPass(w, last.profiled, &seed)
	_, err := heldout.run()
	res.Attempted++
	if err != nil {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s held-out traced pass failed: %v\n", w.name, err)
	}
	self := heldout.t.selfTimes()

	res.Metrics = make(map[string]metric)
	for name, m := range reps[0] {
		vals := make([]float64, len(reps))
		for i, rep := range reps {
			vals[i] = rep[name].Value
		}
		res.Metrics[name] = metric{median(vals), m.Unit}
	}
	for _, layer := range []string{"vm", "trace", "profile", "graph", "core", "predict"} {
		res.Metrics["heldout."+layer+".busy_s"] = metric{layerSelf(self, layer).Seconds(), "s"}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// layerSelf sums the self time of a layer's spans.
func layerSelf(self map[string]time.Duration, layer string) time.Duration {
	var d time.Duration
	for name, t := range self {
		if layerOf(name) == layer {
			d += t
		}
	}
	return d
}

// layerMetrics computes one traced pass's per-layer metrics; untraced
// is the untraced pass it is compared with.
func layerMetrics(p *tracedPass, wall time.Duration, untraced passReport) map[string]metric {
	self := p.t.selfTimes()
	var attributed time.Duration
	for name, d := range self {
		if layerOf(name) != "" {
			attributed += d
		}
	}
	c := p.c
	const mb = 1 << 20
	vmBusy := layerSelf(self, "vm").Seconds()
	predictBusy := layerSelf(self, "predict").Seconds()
	sizeS := self["core.size"].Seconds()
	return map[string]metric{
		"vm.busy_s":                   {vmBusy, "s"},
		"vm.runs":                     {float64(c.vmRuns), "count"},
		"vm.instructions":             {float64(c.vmInstructions), "count"},
		"vm.minstr_per_s":             {ratio(float64(c.vmInstructions)/1e6, vmBusy), "Minstr/s"},
		"trace.busy_s":                {layerSelf(self, "trace").Seconds(), "s"},
		"trace.events":                {float64(c.traceEvents), "count"},
		"profile.accumulate_s":        {self["profile.accumulate"].Seconds(), "s"},
		"profile.extract_s":           {self["profile.extract"].Seconds(), "s"},
		"profile.events":              {float64(c.profileEvents), "count"},
		"profile.pair_increments":     {float64(c.pairIncrements), "count"},
		"profile.pairs":               {float64(c.pairs), "count"},
		"profile.table_mb":            {float64(c.tableBytes) / mb, "MB"},
		"profile.alloc_mb":            {float64(c.profileAlloc) / mb, "MB"},
		"graph.build_s":               {self["graph.build"].Seconds(), "s"},
		"graph.edges":                 {float64(c.edges), "count"},
		"graph.cliques_s":             {self["graph.cliques"].Seconds(), "s"},
		"graph.clique_steps":          {float64(c.cliqueStep), "count"},
		"core.size_s":                 {sizeS, "s"},
		"core.colorings":              {float64(c.colorings), "count"},
		"core.probe_ms":               {ratio(1000*sizeS, float64(c.probes)), "ms"},
		"core.allocate_s":             {self["core.allocate"].Seconds(), "s"},
		"core.alloc_mb":               {float64(c.coreAlloc) / mb, "MB"},
		"predict.busy_s":              {predictBusy, "s"},
		"predict.lookups":             {float64(c.predictLookups), "count"},
		"predict.ns_per_lookup":       {ratio(1e9*predictBusy, float64(c.predictLookups)), "ns"},
		"harness.render_s":            {self["harness.render"].Seconds(), "s"},
		"harness.profiles_built":      {float64(len(untraced.Profiled)), "count"},
		"harness.unattributed_s":      {(wall - attributed).Seconds(), "s"},
		"harness.trace_overhead_frac": {ratio(wall.Seconds(), untraced.WallS) - 1, "ratio"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fingerprint identifies the machine and code a result was measured on.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Tree       string  `json:"tree_sha256"`
	Workload   string  `json:"workload"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      int     `json:"trace"`
}

func takeFingerprint(w benchWorkload, seed uint64, seconds, traced int) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Tree:       treeDigest("."),
		Workload:   w.name,
		Scale:      w.scale,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
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

// commit is the VCS revision the binary was built from, when the build
// stamped one; a checkout without version control has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

// treeDigest hashes the Go sources and module files under root, so a
// result names the code it measured even without version control.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
