// Command pipebench is the repository's benchmark: it runs one workload of
// the maintenance pipeline (event → fresh view → remote client, and crash →
// recovered) on inputs generated from a seed, checks every result against
// re-evaluation, and prints the metrics BENCHMARK.json lists. The last line
// of its output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"setup_s": {"value": 0.03, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
// --trace 1 the run records a span around every call into a layer and the
// metrics are the per_layer list, including each layer's self time. Run it
// from the repository root through pipebench/run.sh, which builds it:
//
//	bash pipebench/run.sh --workload tpch_batch --seed 1 --seconds 10 --trace 0
//
// A failed correctness gate or operation makes the run exit with status 1
// after printing its result.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
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
)

// spec is the part of BENCHMARK.json the benchmark reads: which metrics to
// report, with their units.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// mainErr runs the benchmark and returns the exit status: 0 when every gate
// and operation passed, 1 when one failed. An error means no result.
func mainErr(args []string, stdout io.Writer) (int, error) {
	fl := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: tpch_batch, finance_tick, serve_durable, or all")
	seed := fl.Int64("seed", 1, "input generator seed")
	seconds := fl.Float64("seconds", 10, "how long the timed loop runs")
	trace := fl.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	size := fl.Float64("size", 1, "multiplier on the closed-loop input sizes")
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics to report")
	spansDir := fl.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to")
	inject := fl.String("inject", "", "corrupt one result on purpose: drop-window, client-copy or log-tail")
	if err := fl.Parse(args); err != nil {
		return 0, err
	}
	if *seconds <= 0 || *size <= 0 || (*trace != 0 && *trace != 1) {
		return 0, errors.New("--seconds and --size must be positive and --trace 0 or 1")
	}
	switch *inject {
	case "", "drop-window", "client-copy", "log-tail":
	default:
		return 0, fmt.Errorf("unknown --inject %q", *inject)
	}
	var defs []workloadDef
	if *name == "all" {
		defs = workloads
	} else if def, ok := workloadByName(*name); ok {
		defs = []workloadDef{def}
	} else {
		return 0, fmt.Errorf("unknown --workload %q", *name)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return 0, err
	}
	listed := sp.EndToEnd
	if *trace == 1 {
		listed = sp.PerLayer
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, size: *size, inject: *inject}
	host := fingerprint()

	final := output{Correct: true, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		res, err := runWorkload(def, o)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", def.name, err)
		}
		res.inputs["seed"] = o.seed
		res.inputs["seconds"] = o.seconds
		res.inputs["size"] = o.size
		res.inputs["offered_events_per_s"] = def.rate
		res.inputs["sync"] = map[bool]string{true: "commit", false: "none"}[def.rate > 0]
		res.inputs["checkpoints"] = "delta"
		stamp := map[string]any{"workload": def.name, "host": host, "inputs": res.inputs, "trace": o.trace}
		report(stdout, res, stamp, sp.units())
		if o.trace {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", def.name, o.seed))
			if err := res.spans.write(path, stamp); err != nil {
				return 0, err
			}
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
		prefix := ""
		if len(defs) > 1 {
			prefix = def.name + "."
		}
		for _, m := range listed {
			v, ok := res.e2e[m.Name]
			if !ok {
				v, ok = res.layer[m.Name]
			}
			if !ok {
				return 0, fmt.Errorf("%s: metric %s was not measured", def.name, m.Name)
			}
			final.Metrics[prefix+m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		final.Correct = final.Correct && res.correct()
		final.Attempted += res.attempted
		final.Failed += res.failed
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1, nil
	}
	return 0, nil
}

// units maps every listed metric to its unit.
func (sp *spec) units() map[string]string {
	out := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		out[m.Name] = m.Unit
	}
	return out
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return &sp, nil
}

// report prints the run's stamp, every measured metric with its sample
// count, the gates and the error rate, for a reader.
func report(w io.Writer, res *result, stamp map[string]any, units map[string]string) {
	b, _ := json.Marshal(stamp)
	fmt.Fprintf(w, "stamp %s\n", b)
	list := func(kind string, m map[string]float64) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			unit, ok := units[n]
			if !ok && strings.HasSuffix(n, "_ms") {
				unit = "ms"
			}
			fmt.Fprintf(w, "%s %-30s %14.6g %-6s", kind, n, m[n], unit)
			if c, ok := res.counts[strings.Split(n, "_")[0]]; ok && kind == "e2e" {
				fmt.Fprintf(w, " (n=%d)", c)
			}
			fmt.Fprintln(w)
		}
	}
	list("e2e", res.e2e)
	list("layer", res.layer)
	for _, g := range res.gates {
		status := "ok"
		if g.err != nil {
			status = "FAILED: " + g.err.Error()
		}
		fmt.Fprintf(w, "gate %s: %s\n", g.name, status)
	}
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "e2e %-30s %14.6g %-6s (%d failed of %d attempted)\n", "error_rate", rate, "share", res.failed, res.attempted)
}

// fingerprint identifies the host and the code a result came from. The
// commit is the VCS revision the binary was built at, when it was built in a
// repository; otherwise a hash of the module's Go sources and go.mod files.
func fingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if commit != "" && dirty {
			commit += "+modified"
		}
	}
	if commit == "" {
		commit = "tree-sha256:" + sourceHash(".")
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH, "commit": commit,
	}
}

// sourceHash hashes every .go and go.mod file under root, in path order,
// skipping hidden and build directories.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
