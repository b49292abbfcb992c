package main

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/graphml"
)

// The verifier checks every answer against the benchmark's own copy of
// the hosting network. The benchmark applies each delta it sends to that
// copy, so it knows the hosting network at every model version.

// embedAnswer is the part of an /embed reply the verifier reads.
type embedAnswer struct {
	Status        string              `json:"status"`
	Mappings      []map[string]string `json:"mappings"`
	Paths         [][]wireWitness     `json:"paths"`
	ModelVersion  uint64              `json:"modelVersion"`
	ObjectiveCost *float64            `json:"objectiveCost"`
	// answeredBy is the answering shard a coordinator names in a header.
	answeredBy string
}

type wireWitness struct {
	Source string   `json:"source"`
	Target string   `json:"target"`
	Path   []string `json:"path"`
}

// snapshot is one state of the hosting network: the state after the
// n-th delta of the run (n = 0 is the generated host).
type snapshot struct {
	g *graph.Graph
	// version is the model version a single daemon reports for it.
	version uint64
}

// hostHistory holds the hosting network's states in delta order. Each
// delta's state is prepared when the delta is generated, before any
// clock runs; the deltas then go out one at a time in that order, so the
// n-th delta sent is the n-th the daemon applies.
type hostHistory struct {
	mu    sync.Mutex
	turn  *sync.Cond // signalled when a delta is settled
	base  int        // index of snaps[0] in the run's delta order
	snaps []snapshot
	// sent is the newest state whose delta has gone out, settled the
	// newest whose delta the daemon has answered, acked the newest it
	// acknowledged: snapshot acked is the newest one certainly live.
	sent, settled, acked int
}

func newHostHistory(g *graph.Graph, version uint64) *hostHistory {
	h := &hostHistory{snaps: []snapshot{{g: g, version: version}}}
	h.turn = sync.NewCond(&h.mu)
	return h
}

// prepare applies d to the newest state and registers the result. It
// returns the index of the new state.
func (h *hostHistory) prepare(d *graph.Delta) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	last := h.snaps[len(h.snaps)-1]
	next, err := last.g.ApplyDelta(d)
	if err != nil {
		return 0, fmt.Errorf("apply delta to the reference host: %w", err)
	}
	h.snaps = append(h.snaps, snapshot{g: next, version: last.version + 1})
	return h.base + len(h.snaps) - 1, nil
}

// send waits until every earlier delta is settled, then marks the delta
// of state idx as going out. Every prepared delta must be sent and
// settled, or later ones wait forever.
func (h *hostHistory) send(idx int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.settled != idx-1 {
		h.turn.Wait()
	}
	h.sent = idx
}

// settle records the daemon's answer to the delta of state idx; ok when
// the daemon acknowledged it.
func (h *hostHistory) settle(idx int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.settled = idx
	if ok {
		h.acked = idx
	}
	h.turn.Broadcast()
}

// prune drops every state but the newest; call it once every delta is
// settled and every answer that could have been computed on an older
// state is verified.
func (h *hostHistory) prune() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.base += len(h.snaps) - 1
	h.snaps = h.snaps[len(h.snaps)-1:]
}

// expected is the model version a single daemon must report for idx.
func (h *hostHistory) expected(idx int) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snaps[idx-h.base].version
}

// live returns the index of the newest acknowledged state and of the
// newest sent one: an answer started now is computed on a state in that
// range, or a later one.
func (h *hostHistory) live() (acked, sent int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acked, h.sent
}

// byVersion returns the state a single daemon reports as version.
func (h *hostHistory) byVersion(version uint64) (*graph.Graph, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	first := h.snaps[0].version
	if version < first || int(version-first) >= len(h.snaps) {
		return nil, false
	}
	return h.snaps[version-first].g, true
}

// between returns the states with index lo..hi.
func (h *hostHistory) between(lo, hi int) []*graph.Graph {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*graph.Graph
	for i := max(lo, h.base); i <= hi && i-h.base < len(h.snaps); i++ {
		out = append(out, h.snaps[i-h.base].g)
	}
	return out
}

// compiled caches decoded queries and compiled constraints by text:
// repeated shapes are decoded once per run.
type compiled struct {
	mu      sync.Mutex
	queries map[string]*graph.Graph
	progs   map[string]*expr.Program
	// shardLocal counts complete optimizing answers costlier than the
	// plant, from a shard that does not hold the plant; see checkCost.
	shardLocal int
}

func newCompiled() *compiled {
	return &compiled{queries: map[string]*graph.Graph{}, progs: map[string]*expr.Program{}}
}

func (c *compiled) query(xml string) (*graph.Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.queries[xml]; ok {
		return q, nil
	}
	q, err := graphml.DecodeString(xml)
	if err != nil {
		return nil, err
	}
	c.queries[xml] = q
	return q, nil
}

func (c *compiled) prog(src string) (*expr.Program, error) {
	if src == "" {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.progs[src]; ok {
		return p, nil
	}
	p, err := expr.Compile(src)
	if err != nil {
		return nil, err
	}
	c.progs[src] = p
	return p, nil
}

var errWrongAnswer = errors.New("wrong answer")

// checkAnswer verifies every mapping of a read's answer on host. A
// "complete" answer with no mapping claims the planted query infeasible,
// which is wrong at every version. It reports whether the answer holds
// at least one mapping.
func (c *compiled) checkAnswer(o op, ans *embedAnswer, host *graph.Graph) (found bool, err error) {
	if ans.Status == "complete" && len(ans.Mappings) == 0 {
		return false, fmt.Errorf("%w: complete answer with no mapping for a planted query", errWrongAnswer)
	}
	if len(ans.Mappings) == 0 {
		return false, nil
	}
	q, err := c.query(o.query)
	if err != nil {
		return false, fmt.Errorf("decode own query: %w", err)
	}
	var nodeSrc string
	if o.cross {
		nodeSrc = regionConstraint
	}
	nodeProg, err := c.prog(nodeSrc)
	if err != nil {
		return false, err
	}
	if o.kind == kindPath {
		if len(ans.Paths) != len(ans.Mappings) {
			return false, fmt.Errorf("%w: %d path sets for %d mappings", errWrongAnswer, len(ans.Paths), len(ans.Mappings))
		}
		p, err := core.NewProblem(q, host, nil, nodeProg)
		if err != nil {
			return false, err
		}
		for i, m := range ans.Mappings {
			sol, err := pathSolution(q, host, m, ans.Paths[i])
			if err != nil {
				return false, err
			}
			if err := core.VerifyPathSolution(p, core.PathOptions{MaxHops: pathHops}, sol); err != nil {
				return false, fmt.Errorf("%w: %v", errWrongAnswer, err)
			}
		}
		return true, nil
	}
	edgeProg, err := c.prog(delayConstraint)
	if err != nil {
		return false, err
	}
	p, err := core.NewProblem(q, host, edgeProg, nodeProg)
	if err != nil {
		return false, err
	}
	for _, m := range ans.Mappings {
		mapping, err := nodeMapping(q, host, m)
		if err != nil {
			return false, err
		}
		if err := p.Verify(mapping); err != nil {
			return false, fmt.Errorf("%w: %v", errWrongAnswer, err)
		}
	}
	if o.kind == kindOptimize {
		return true, c.checkCost(o, ans, q, host)
	}
	return true, nil
}

// costObjective is the objective optimizing reads minimize.
var costObjective = core.Objective{Kind: core.ObjectiveAttrCost, Attr: "cpu"}

// costTolerance absorbs float rounding between the daemon's incremental
// cost and the verifier's sum over the mapping.
const costTolerance = 1e-6

// checkCost checks an optimizing answer's objectiveCost: it must be the
// cost of the mapping it comes with, and a complete answer, which claims
// that mapping optimal, must cost no more than the planted mapping.
//
// A coordinator passes on the status of the first shard that finds a
// mapping, so its complete answer proves the mapping optimal within that
// shard only. When that shard does not hold the plant, the plant bounds
// nothing the answer claims; such answers that cost more than the plant
// are counted in shardLocal rather than failed.
func (c *compiled) checkCost(o op, ans *embedAnswer, q, host *graph.Graph) error {
	if ans.ObjectiveCost == nil {
		return fmt.Errorf("%w: optimizing answer without objectiveCost", errWrongAnswer)
	}
	best, err := nodeMapping(q, host, ans.Mappings[0])
	if err != nil {
		return err
	}
	got := *ans.ObjectiveCost
	if want := costObjective.Cost(host, best); math.Abs(got-want) > costTolerance*max(1, math.Abs(want)) {
		return fmt.Errorf("%w: objectiveCost %g, but the mapping costs %g", errWrongAnswer, got, want)
	}
	if ans.Status != "complete" {
		return nil
	}
	plant := map[string]string{}
	for i, name := range o.plant {
		plant[q.Node(graph.NodeID(i)).Name] = name
	}
	planted, err := nodeMapping(q, host, plant)
	if err != nil {
		return fmt.Errorf("resolve own planted mapping: %w", err)
	}
	bound := costObjective.Cost(host, planted)
	if got <= bound+costTolerance*max(1, math.Abs(bound)) {
		return nil
	}
	if o.region != "" && ans.answeredBy != o.region {
		c.mu.Lock()
		c.shardLocal++
		c.mu.Unlock()
		return nil
	}
	return fmt.Errorf("%w: complete optimizing answer costs %g, the planted mapping %g", errWrongAnswer, got, bound)
}

// nodeMapping resolves a by-name mapping into query-node order.
func nodeMapping(q, host *graph.Graph, named map[string]string) (core.Mapping, error) {
	if len(named) != q.NumNodes() {
		return nil, fmt.Errorf("%w: mapping names %d of %d query nodes", errWrongAnswer, len(named), q.NumNodes())
	}
	m := make(core.Mapping, q.NumNodes())
	for i := range m {
		hostName, ok := named[q.Node(graph.NodeID(i)).Name]
		if !ok {
			return nil, fmt.Errorf("%w: query node %s unmapped", errWrongAnswer, q.Node(graph.NodeID(i)).Name)
		}
		id, ok := host.NodeByName(hostName)
		if !ok {
			return nil, fmt.Errorf("%w: unknown host node %q", errWrongAnswer, hostName)
		}
		m[i] = id
	}
	return m, nil
}

// pathSolution resolves a by-name path answer into a core.PathSolution.
func pathSolution(q, host *graph.Graph, named map[string]string, witnesses []wireWitness) (core.PathSolution, error) {
	m, err := nodeMapping(q, host, named)
	if err != nil {
		return core.PathSolution{}, err
	}
	sol := core.PathSolution{Nodes: m, Paths: map[graph.EdgeID]graph.Path{}}
	for _, w := range witnesses {
		u, okU := q.NodeByName(w.Source)
		v, okV := q.NodeByName(w.Target)
		if !okU || !okV {
			return sol, fmt.Errorf("%w: witness for unknown query edge %s-%s", errWrongAnswer, w.Source, w.Target)
		}
		qe, ok := q.EdgeBetween(u, v)
		if !ok {
			return sol, fmt.Errorf("%w: witness for non-edge %s-%s", errWrongAnswer, w.Source, w.Target)
		}
		var path graph.Path
		for j, name := range w.Path {
			id, ok := host.NodeByName(name)
			if !ok {
				return sol, fmt.Errorf("%w: witness crosses unknown host node %q", errWrongAnswer, name)
			}
			if j > 0 {
				e, ok := host.EdgeBetween(path.Nodes[j-1], id)
				if !ok {
					return sol, fmt.Errorf("%w: witness hop %s-%s is no host edge", errWrongAnswer, w.Path[j-1], name)
				}
				path.Edges = append(path.Edges, e)
			}
			path.Nodes = append(path.Nodes, id)
		}
		// The witness runs source→target of the query edge as named; the
		// verifier expects it from the edge's From endpoint.
		if q.Edge(qe).From != u {
			reverse(path.Nodes)
			reverse(path.Edges)
		}
		sol.Paths[qe] = path
	}
	return sol, nil
}

func reverse[T any](s []T) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
