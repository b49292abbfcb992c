package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/graphml"
)

func testHost(t *testing.T) *graph.Graph {
	t.Helper()
	xml, err := graphml.EncodeString(genHost())
	if err != nil {
		t.Fatal(err)
	}
	host, err := graphml.DecodeString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// The same seed must give a byte-identical request stream, warm-up and
// delta probe included; another seed must not.
func TestStreamDeterministic(t *testing.T) {
	host := testHost(t)
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			draw := func(seed int64) [][]byte {
				st := newStream(sp, host, seed)
				var out [][]byte
				for _, o := range st.warmup(seed) {
					out = append(out, o.body)
				}
				for i := 0; i < 150; i++ {
					out = append(out, st.next().body)
				}
				for i := 0; i < 10; i++ {
					out = append(out, st.probeDelta().body)
				}
				return out
			}
			a, b, other := draw(7), draw(7), draw(8)
			if len(a) != len(b) {
				t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
			}
			same := true
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("op %d differs between two streams of seed 7", i)
				}
				same = same && i < len(other) && bytes.Equal(a[i], other[i])
			}
			if same {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
		})
	}
}

// Fresh queries never repeat within a stream.
func TestFreshStreamNeverRepeats(t *testing.T) {
	host := testHost(t)
	sp, _ := lookupSpec("federated")
	st := newStream(sp, host, 3)
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		o := st.next()
		if o.kind == kindDelta {
			continue
		}
		if seen[o.query] {
			t.Fatalf("op %d repeats a query", i)
		}
		seen[o.query] = true
	}
}

// Every round of a stream holds the workload's mix in exact proportion,
// and federated region-local reads alternate between the regions.
func TestStreamDealsExactMix(t *testing.T) {
	host := testHost(t)
	for _, sp := range workloads {
		st := newStream(sp, host, 5)
		round := len(st.kinds)
		var regions []string
		for r := 0; r < 20; r++ {
			got := map[string]int{}
			for i := 0; i < round; i++ {
				o := st.next()
				k := o.kind
				if o.cross {
					k = kindCross
				}
				got[k]++
				if o.region != "" {
					regions = append(regions, o.region)
				}
			}
			for k, n := range sp.mix {
				if got[k] != n {
					t.Fatalf("%s round %d: %d %s ops, mix wants %d", sp.name, r, got[k], k, n)
				}
			}
		}
		for i, r := range regions {
			if want := []string{"west", "east"}[i%2]; r != want {
				t.Fatalf("%s: local read %d planted in %s, want %s", sp.name, i, r, want)
			}
		}
	}
}

func plantedAnswer(q *graph.Graph, host *graph.Graph, plant []graph.NodeID) map[string]string {
	m := map[string]string{}
	for i, h := range plant {
		m[q.Node(graph.NodeID(i)).Name] = host.Node(h).Name
	}
	return m
}

// The verifier accepts the planted mapping and rejects corrupted ones.
func TestVerifierRejectsCorruptMapping(t *testing.T) {
	host := testHost(t)
	comp := newCompiled()
	xml, plant := planted(host, 6, 8, rand.New(rand.NewSource(5)))
	q, err := comp.query(xml)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{kindEmbed, kindOptimize} {
		o := op{kind: kind, query: xml, body: readBody(kind, xml, false), plant: names(host, plant)}
		cost := costObjective.Cost(host, core.Mapping(plant))
		good := plantedAnswer(q, host, plant)
		ans := &embedAnswer{Status: "partial", Mappings: []map[string]string{good}, ObjectiveCost: &cost}
		if found, err := comp.checkAnswer(o, ans, host); err != nil || !found {
			t.Fatalf("%s: planted mapping rejected: found=%v err=%v", kind, found, err)
		}

		// Two query nodes on one host node.
		dup := plantedAnswer(q, host, plant)
		dup["q0"] = dup["q1"]
		ans.Mappings = []map[string]string{good, dup}
		if _, err := comp.checkAnswer(o, ans, host); err == nil {
			t.Fatalf("%s: non-injective mapping accepted", kind)
		}

		// q0 moved to an unused host node that misses one of q0's edges.
		nb := q.Arcs(0)[0].To
		anchor, _ := host.NodeByName(good[q.Node(nb).Name])
		moved := plantedAnswer(q, host, plant)
		for r := 0; r < host.NumNodes(); r++ {
			id := graph.NodeID(r)
			if !host.HasEdge(anchor, id) && id != anchor && !containsNode(plant, id) {
				moved["q0"] = host.Node(id).Name
				break
			}
		}
		ans.Mappings = []map[string]string{moved}
		if _, err := comp.checkAnswer(o, ans, host); err == nil {
			t.Fatalf("%s: mapping over a missing host edge accepted", kind)
		}
	}

	// A complete answer without mappings claims a planted query
	// infeasible.
	o := op{kind: kindEmbed, query: xml}
	if _, err := comp.checkAnswer(o, &embedAnswer{Status: "complete"}, host); err == nil {
		t.Fatal("complete answer with no mapping accepted")
	}
}

// Optimizing answers: objectiveCost must be the cost of the mapping it
// comes with, and a complete answer, which claims optimality, must cost
// no more than the planted mapping.
func TestVerifierChecksObjectiveCost(t *testing.T) {
	host := testHost(t)
	comp := newCompiled()
	xml, plant := planted(host, 6, 8, rand.New(rand.NewSource(5)))
	q, err := comp.query(xml)
	if err != nil {
		t.Fatal(err)
	}
	edgeProg, err := comp.prog(delayConstraint)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(q, host, edgeProg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.ECF(p, core.Options{Objective: costObjective, Optimize: true, MaxSolutions: 1})
	if res.Status != core.StatusComplete || len(res.Solutions) == 0 {
		t.Fatalf("reference optimum: status %v, %d solutions", res.Status, len(res.Solutions))
	}
	optimum, plantCost := res.Solutions[0], costObjective.Cost(host, core.Mapping(plant))
	if res.Cost >= plantCost {
		t.Fatalf("the planted mapping (cost %g) is already optimal (%g); pick another query", plantCost, res.Cost)
	}
	byName := func(m core.Mapping) map[string]string {
		out := map[string]string{}
		for i, h := range m {
			out[q.Node(graph.NodeID(i)).Name] = host.Node(h).Name
		}
		return out
	}
	answer := func(status string, m core.Mapping, cost float64) *embedAnswer {
		return &embedAnswer{Status: status, Mappings: []map[string]string{byName(m)}, ObjectiveCost: &cost}
	}
	o := op{kind: kindOptimize, query: xml, body: readBody(kindOptimize, xml, false), plant: names(host, plant)}
	cases := []struct {
		name string
		ans  *embedAnswer
		ok   bool
	}{
		{"optimum, complete", answer("complete", optimum, res.Cost), true},
		{"planted, partial", answer("partial", core.Mapping(plant), plantCost), true},
		{"planted, complete", answer("complete", core.Mapping(plant), plantCost), true},
		{"wrong cost", answer("partial", core.Mapping(plant), plantCost-1), false},
		{"no cost", &embedAnswer{Status: "partial", Mappings: []map[string]string{byName(core.Mapping(plant))}}, false},
	}
	for _, c := range cases {
		if _, err := comp.checkAnswer(o, c.ans, host); (err == nil) != c.ok {
			t.Errorf("%s: accepted=%v, want %v (err %v)", c.name, err == nil, c.ok, err)
		}
	}
	// A complete answer costlier than a feasible mapping the benchmark
	// planted: stopping branch-and-bound early and calling it complete.
	cheaper := o
	cheaper.plant = names(host, optimum)
	if _, err := comp.checkAnswer(cheaper, answer("complete", core.Mapping(plant), plantCost), host); err == nil {
		t.Error("suboptimal complete answer accepted")
	}

	// Through a coordinator, the bound holds only when the answering
	// shard holds the plant; another shard's answer is counted instead.
	cheaper.region = "east"
	fromPlantShard := answer("complete", core.Mapping(plant), plantCost)
	fromPlantShard.answeredBy = "east"
	if _, err := comp.checkAnswer(cheaper, fromPlantShard, host); err == nil {
		t.Error("suboptimal complete answer from the plant's shard accepted")
	}
	fromOtherShard := answer("complete", core.Mapping(plant), plantCost)
	fromOtherShard.answeredBy = "west"
	if _, err := comp.checkAnswer(cheaper, fromOtherShard, host); err != nil || comp.shardLocal != 1 {
		t.Errorf("shard-local complete answer: err %v, counted %d, want accepted and counted once", err, comp.shardLocal)
	}
}

func containsNode(ids []graph.NodeID, id graph.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Path answers: the planted witnesses (each query edge on its own
// hosting edge) verify; a witness hop over a non-edge does not.
func TestVerifierRejectsCorruptPath(t *testing.T) {
	host := testHost(t)
	comp := newCompiled()
	xml, plant := planted(host, 4, 4, rand.New(rand.NewSource(9)))
	q, err := comp.query(xml)
	if err != nil {
		t.Fatal(err)
	}
	named := plantedAnswer(q, host, plant)
	var witnesses []wireWitness
	for i := 0; i < q.NumEdges(); i++ {
		e := q.Edge(graph.EdgeID(i))
		src, dst := q.Node(e.From).Name, q.Node(e.To).Name
		witnesses = append(witnesses, wireWitness{Source: src, Target: dst, Path: []string{named[src], named[dst]}})
	}
	o := op{kind: kindPath, query: xml}
	ans := &embedAnswer{Status: "partial", Mappings: []map[string]string{named}, Paths: [][]wireWitness{witnesses}}
	if found, err := comp.checkAnswer(o, ans, host); err != nil || !found {
		t.Fatalf("planted path answer rejected: found=%v err=%v", found, err)
	}
	// Route the first witness through a node that is not adjacent to its
	// source.
	first := witnesses[0]
	src, _ := host.NodeByName(first.Path[0])
	for r := 0; r < host.NumNodes(); r++ {
		if id := graph.NodeID(r); id != src && !host.HasEdge(src, id) {
			witnesses[0].Path = []string{first.Path[0], host.Node(id).Name, first.Path[1]}
			break
		}
	}
	if _, err := comp.checkAnswer(o, ans, host); err == nil {
		t.Fatal("witness over a non-edge accepted")
	}
}

type declared struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// The metrics the benchmark prints are exactly those BENCHMARK.json
// declares, with the same units, and its workloads are the ones the
// benchmark knows.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	check := func(mode string, decl []metric, names, units []string, traced bool) {
		if len(decl) != len(names) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", mode, len(decl), len(names))
		}
		for i := range decl {
			if decl[i].name != names[i] || decl[i].unit != units[i] {
				t.Errorf("%s %d: benchmark has %s [%s], BENCHMARK.json %s [%s]", mode, i, decl[i].name, decl[i].unit, names[i], units[i])
			}
		}
		out := report(&result{metrics: map[string]float64{}}, traced)
		if len(out.Metrics) != len(names) {
			t.Errorf("%s: report prints %d metrics, want %d", mode, len(out.Metrics), len(names))
		}
		for _, n := range names {
			if _, ok := out.Metrics[n]; !ok {
				t.Errorf("%s: report lacks %s", mode, n)
			}
		}
	}
	var names, units []string
	for _, m := range d.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEnd, names, units, false)
	names, units = nil, nil
	for _, m := range d.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units, true)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

// A seconds-long run of every workload, untraced against real daemons
// and traced in-process, completes with every answer verified and every
// declared metric present.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "netembedd")
	build := exec.Command("go", "build", "-o", bin, "netembed/cmd/netembedd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build netembedd: %v\n%s", err, out)
	}
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: sp.name, seed: 2, seconds: 2, trace: traced, root: root, daemonBin: bin,
				outDir: filepath.Join(root, sp.name, map[bool]string{false: "load", true: "trace"}[traced])}
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				t.Fatal(err)
			}
			w, err := generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := loadRun
			if traced {
				run = traceRun
			}
			res, err := run(cfg, sp, w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			out := report(res, traced)
			if !out.Correct || out.Failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v", sp.name, traced, out.Correct, res.attempted, out.Failed, res.notes)
			}
			for name, m := range out.Metrics {
				if math.IsNaN(m.Value) || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s = %v", sp.name, traced, name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "spans.jsonl")); err != nil {
					t.Errorf("%s: span file: %v", sp.name, err)
				}
			}
		}
	}
}
