// Command perfbench is the NETEMBED serve-path benchmark. It generates a
// seeded workload, boots real netembedd daemons built from the tree,
// drives them over loopback HTTP with at most nproc connections, checks
// every answer, and prints the end-to-end metrics; with -trace 1 it
// instead replays the same stream in-process against the layers the
// daemon is built from and prints per-layer metrics.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload federated --seed 3 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it carry the
// environment stamp, per-phase sent/succeeded/failed counts and notes.
// The exit code is non-zero when an answer fails verification or the run
// cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"netembed/internal/graph"
	"netembed/internal/graphml"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	root      string
	daemonBin string
	outDir    string
}

// generated is the seeded hosting network as the daemons load it.
type generated struct {
	host     *graph.Graph // decoded from the GraphML the daemons load
	hostPath string
	hostXML  string
}

func main() {
	os.Exit(run())
}

// cleanup stops the daemons of the running workload; an interrupt runs
// it before exiting so no daemon outlives the benchmark.
var cleanup struct {
	sync.Mutex
	fn func()
}

func setCleanup(fn func()) {
	cleanup.Lock()
	cleanup.fn = fn
	cleanup.Unlock()
}

func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup.Lock()
		if cleanup.fn != nil {
			cleanup.fn()
		}
		os.Exit(130)
	}()
}

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hot-repeat or federated")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced in-process replay printing per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root (holds .bench_build/)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	stopOnSignal()
	sp, ok := lookupSpec(cfg.workload)
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		return 2
	}
	cfg.daemonBin = filepath.Join(cfg.root, ".bench_build", "bin", "netembedd")
	cfg.outDir = filepath.Join(cfg.root, ".bench_build", "out", fmt.Sprintf("%s-seed%d-trace%d", sp.name, cfg.seed, traceFlag))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	env := stamp(cfg)
	envJSON, _ := json.Marshal(env) // a map of strings and numbers always encodes
	fmt.Printf("env %s\n", envJSON)

	w, err := generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	if cfg.trace {
		res, err = traceRun(cfg, sp, w)
	} else {
		res, err = loadRun(cfg, sp, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range res.phases {
		sent, ok, failed := p.counts()
		fmt.Printf("phase %-7s sent %d succeeded %d failed %d\n", p.name, sent, ok, failed)
	}
	for _, n := range res.notes {
		fmt.Printf("note %s\n", n)
	}
	out := report(res, cfg.trace)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	full, _ := json.MarshalIndent(map[string]any{"env": env, "result": out, "notes": res.notes}, "", "  ")
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result.json"), full, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// generate writes the seeded hosting network where the daemons load it
// and decodes it back, so the verifier's copy is exactly what they serve.
func generate(cfg config) (*generated, error) {
	xml, err := graphml.EncodeString(genHost())
	if err != nil {
		return nil, fmt.Errorf("encode host: %w", err)
	}
	path := filepath.Join(cfg.outDir, "host.graphml")
	if err := os.WriteFile(path, []byte(xml), 0o644); err != nil {
		return nil, fmt.Errorf("write host: %w", err)
	}
	host, err := graphml.DecodeString(xml)
	if err != nil {
		return nil, fmt.Errorf("decode host: %w", err)
	}
	return &generated{host: host, hostPath: path, hostXML: xml}, nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report renders a result with exactly the declared metrics of its mode.
func report(res *result, traced bool) resultJSON {
	decl := endToEnd
	if traced {
		decl = perLayer
	}
	out := resultJSON{Correct: res.correct, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]metricJSON{}}
	if res.attempted == 0 {
		out.Correct = false
	}
	for _, d := range decl {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN or infinity; the run is already marked
			// incorrect by the metric check that found it.
			v, out.Correct = 0, false
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs (nearest rank); NaN when
// xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}
