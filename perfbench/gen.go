package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// Every input the daemons see is generated here from the workload seed:
// the hosting network, the planted queries, the region labels and the
// delay drift of the deltas.

const (
	hostSites = 120
	// hostSeed fixes the hosting network: every workload and every
	// workload seed runs on the same 120-site host, so run-to-run spread
	// comes from the traffic, not from redrawing the substrate (path
	// search cost in particular differs by a factor of ten between
	// hosts drawn from different seeds).
	hostSeed = 1
	// regionAttr carries the two-way shard label (west/east) derived from
	// each site's geographic cluster; the federated workload shards on it.
	regionAttr = "region"
	// windowSlack widens every planted query edge's delay window. The
	// drift deltas move a hosting edge's delays by at most driftPct of
	// their generated value, so a planted mapping stays feasible at every
	// model version.
	windowSlack = 0.10
	driftPct    = 0.05
	// timeoutMs bounds every search. Path searches keep a real timeout
	// tail under it (about 1% of planted 4-node path queries run out).
	timeoutMs = 1000
	// pathHops is the witness hop bound of path queries, sent explicitly
	// so the verifier uses the same bound. The daemon's default of 3 makes
	// a planted 4-node query's search time bimodal (0.3 ms or 30-1000 ms,
	// by query), so a run's path median would not repeat; at 2 hops
	// path search stays in the stream with steady figures.
	pathHops         = 2
	delayConstraint  = "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"
	regionConstraint = "rNode.region == vNode.region"
)

// westClusters are the geographic clusters of the synthetic PlanetLab
// trace labeled west; every other cluster is east.
var westClusters = map[string]bool{"na-west": true, "asia": true, "oceania": true}

// genHost builds the 120-site PlanetLab-style hosting network and
// relabels each site's region attribute with its shard region.
func genHost() *graph.Graph {
	g := trace.SyntheticPlanetLab(trace.Config{Sites: hostSites}, rand.New(rand.NewSource(hostSeed)))
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		cluster, _ := n.Attrs.Text(regionAttr)
		label := "east"
		if westClusters[cluster] {
			label = "west"
		}
		n.Attrs = n.Attrs.SetStr(regionAttr, label)
	}
	return g
}

// Operation kinds. Reads are /embed requests; deltas are POST /deltas.
const (
	kindEmbed    = "embed"
	kindOptimize = "optimize"
	kindPath     = "path"
	kindDelta    = "delta"
	// kindCross weighs, in a workload's mix only, the enumerating reads
	// planted across both regions; they are sent as kindEmbed ops.
	kindCross = "cross"
)

// op is one generated request of a workload stream.
type op struct {
	seq  int
	kind string
	// body is the exact JSON sent to the daemon.
	body []byte
	// query is the GraphML of a read's query network; cross marks a
	// federated query planted across both regions.
	query string
	cross bool
	// plant names the hosting node each query node was sampled from, in
	// query-node order (reads only): a feasible mapping whose cost
	// bounds an optimal answer's.
	plant []string
	// region is the shard region a federated region-local read was
	// planted in.
	region string
	// delta is the same change as body, for the verifier's private host
	// copy (deltas only); state is the index of the reference host state
	// it produces, set when the runner generates the delta.
	delta *graph.Delta
	state int
}

// wireEmbed is the /embed body the benchmark sends.
type wireEmbed struct {
	Query          string         `json:"query"`
	EdgeConstraint string         `json:"edgeConstraint,omitempty"`
	NodeConstraint string         `json:"nodeConstraint,omitempty"`
	Algorithm      string         `json:"algorithm,omitempty"`
	TimeoutMs      int            `json:"timeoutMs"`
	MaxResults     int            `json:"maxResults,omitempty"`
	MaxHops        int            `json:"maxHops,omitempty"`
	Objective      *wireObjective `json:"objective,omitempty"`
}

type wireObjective struct {
	Kind string `json:"kind"`
	Attr string `json:"attr,omitempty"`
}

type wireEdgeAttrs struct {
	Source string             `json:"source"`
	Target string             `json:"target"`
	Attrs  map[string]float64 `json:"attrs"`
}

type wireDelta struct {
	SetEdgeAttrs []wireEdgeAttrs `json:"setEdgeAttrs"`
}

// readBody renders the /embed body of a read kind over a query.
func readBody(kind, query string, pinRegion bool) []byte {
	req := wireEmbed{Query: query, TimeoutMs: timeoutMs}
	if pinRegion {
		req.NodeConstraint = regionConstraint
	}
	switch kind {
	case kindEmbed:
		req.EdgeConstraint, req.MaxResults = delayConstraint, 1
	case kindOptimize:
		// Branch-and-bound for the placement with the fewest CPUs in use.
		req.EdgeConstraint = delayConstraint
		req.Objective = &wireObjective{Kind: "attr-cost", Attr: "cpu"}
	case kindPath:
		// Path mode composes avgDelay along the witness against the
		// query edge's minDelay/maxDelay window; no edge constraint.
		req.Algorithm, req.MaxResults, req.MaxHops = "path", 1, pathHops
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of strings and ints always encodes
	}
	return b
}

// planted samples a connected query of n nodes and about e edges from
// host, widens its delay windows, and renames its nodes q0..q<n-1> so
// the GraphML carries no hosting-node names. It returns the GraphML and
// the hosting nodes the query was sampled from, in query-node order.
func planted(host *graph.Graph, n, e int, rng *rand.Rand) (string, []graph.NodeID) {
	q, plant, err := topo.Subgraph(host, n, e, rng)
	if err != nil {
		panic(fmt.Sprintf("plant %d-node query: %v", n, err)) // hosts here are connected and far larger
	}
	topo.WidenDelayWindows(q, windowSlack)
	out := graph.NewUndirected()
	for i := 0; i < q.NumNodes(); i++ {
		out.AddNode(fmt.Sprintf("q%d", i), q.Node(graph.NodeID(i)).Attrs)
	}
	for i := 0; i < q.NumEdges(); i++ {
		qe := q.Edge(graph.EdgeID(i))
		out.MustAddEdge(qe.From, qe.To, qe.Attrs)
	}
	xml, err := graphml.EncodeString(out)
	if err != nil {
		panic(err) // in-memory encoding of a valid graph cannot fail
	}
	return xml, plant
}

// names resolves node IDs of g to their names.
func names(g *graph.Graph, ids []graph.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Node(id).Name
	}
	return out
}

// spec describes one workload.
type spec struct {
	name string
	// rate is the open-loop arrival rate in operations per second.
	rate float64
	// mix weighs the operation kinds of the stream.
	mix map[string]int
	// shapes > 0 cycles that many planted query shapes; 0 plants a fresh
	// query for every read.
	shapes int
	// federated boots a coordinator over two region shards.
	federated bool
	// openShare and closedShare split a run's measured seconds between
	// the open and the closed loop.
	openShare, closedShare float64
	// probeDeltas adds a delta-only phase after the read phases, for
	// workloads whose stream carries no deltas; it takes the rest of the
	// run.
	probeDeltas bool
	// warm is the number of stream operations replayed before timing
	// when the workload has no fixed shape set.
	warm int
}

// The rates and mixes come from no recorded traffic (NETEMBED has
// none); they are fixed for run-to-run steadiness at light load, so
// every commit is measured under the same offered load. WORKLOADS.md
// gives the basis of each and the utilisation it produces.
var workloads = []spec{
	{
		name: "hot-repeat", rate: 150, shapes: 48,
		openShare: 0.45, closedShare: 0.40, probeDeltas: true,
		mix: map[string]int{kindEmbed: 1, kindOptimize: 1, kindPath: 1},
	},
	{
		name: "federated", rate: 30, federated: true, warm: 8,
		openShare: 0.70, closedShare: 0.30,
		mix: map[string]int{kindEmbed: 4, kindCross: 2, kindOptimize: 3, kindPath: 3, kindDelta: 3},
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// shape is one planted query of a repeating workload: the enumerating
// and optimizing reads share an 8-node query, path reads use a 4-node one
// (path search on 8 nodes runs into the timeout).
type shape struct {
	embed, optimize, path []byte
	query, pathQuery      string
	plant, pathPlant      []string
}

// stream generates a workload's operations in order. The same seed gives
// the same sequence of bodies; next is safe for concurrent use, and the
// order in which callers receive operations is the stream order.
type stream struct {
	spec spec
	host *graph.Graph
	// west/east are the region-induced subgraphs the federated workload
	// plants region-local queries in.
	west, east *graph.Graph

	mu     sync.Mutex
	rng    *rand.Rand
	seq    int
	kinds  []string // one round of the mix, in proportion
	deck   []string // the current round's kinds not yet dealt
	locals int      // federated region-local reads issued
	shapes []shape
	seen   map[string]bool // planted query texts already issued (fresh)
	drift  *rand.Rand
}

func newStream(s spec, host *graph.Graph, seed int64) *stream {
	st := &stream{
		spec:  s,
		host:  host,
		rng:   rand.New(rand.NewSource(seed*7919 + 1)),
		drift: rand.New(rand.NewSource(seed*7919 + 2)),
		seen:  map[string]bool{},
	}
	for _, k := range []string{kindEmbed, kindCross, kindOptimize, kindPath, kindDelta} {
		for i := 0; i < s.mix[k]; i++ {
			st.kinds = append(st.kinds, k)
		}
	}
	if s.federated {
		st.west, st.east = regionSubgraph(host, "west"), regionSubgraph(host, "east")
	}
	shapeRng := rand.New(rand.NewSource(seed*7919 + 3))
	for i := 0; i < s.shapes; i++ {
		q, plant := planted(host, 8, 12, shapeRng)
		pq, pathPlant := planted(host, 4, 4, shapeRng)
		st.shapes = append(st.shapes, shape{
			embed: readBody(kindEmbed, q, false), optimize: readBody(kindOptimize, q, false),
			path: readBody(kindPath, pq, false), query: q, pathQuery: pq,
			plant: names(host, plant), pathPlant: names(host, pathPlant),
		})
	}
	return st
}

func regionSubgraph(host *graph.Graph, label string) *graph.Graph {
	var ids []graph.NodeID
	for i := 0; i < host.NumNodes(); i++ {
		if l, _ := host.Node(graph.NodeID(i)).Attrs.Text(regionAttr); l == label {
			ids = append(ids, graph.NodeID(i))
		}
	}
	sub, _, err := host.InducedSubgraph(ids)
	if err != nil {
		panic(err) // ids are distinct valid node IDs
	}
	return sub
}

// warmup returns the operations replayed before timing: every shape in
// every read kind for repeating workloads, else the first spec.warm
// operations of a separate warm-up stream (so the timed stream is the
// same whether or not the warm-up ran).
func (st *stream) warmup(seed int64) []op {
	if len(st.shapes) > 0 {
		var out []op
		for _, sh := range st.shapes {
			out = append(out,
				op{kind: kindEmbed, body: sh.embed, query: sh.query, plant: sh.plant},
				op{kind: kindOptimize, body: sh.optimize, query: sh.query, plant: sh.plant},
				op{kind: kindPath, body: sh.path, query: sh.pathQuery, plant: sh.pathPlant})
		}
		return out
	}
	w := newStream(st.spec, st.host, seed+1_000_003)
	var out []op
	for len(out) < st.spec.warm {
		if o := w.next(); o.kind != kindDelta {
			out = append(out, o)
		}
	}
	return out
}

// next returns the stream's next operation.
func (st *stream) next() op {
	st.mu.Lock()
	defer st.mu.Unlock()
	o := op{seq: st.seq, kind: st.deal()}
	st.seq++
	if o.kind == kindCross {
		o.kind, o.cross = kindEmbed, true
	}
	switch {
	case o.kind == kindDelta:
		o.body, o.delta = st.nextDelta(st.rng)
	case len(st.shapes) > 0:
		sh := st.shapes[st.rng.Intn(len(st.shapes))]
		switch o.kind {
		case kindEmbed:
			o.body, o.query, o.plant = sh.embed, sh.query, sh.plant
		case kindOptimize:
			o.body, o.query, o.plant = sh.optimize, sh.query, sh.plant
		default:
			o.body, o.query, o.plant = sh.path, sh.pathQuery, sh.pathPlant
		}
	default:
		st.federatedRead(&o)
	}
	return o
}

// deal returns the next kind of the mix. Kinds are dealt from a
// shuffled deck holding one round of the mix, so every round of
// len(kinds) operations, and so every stretch of a run, has the mix in
// exact proportion whatever the seed.
func (st *stream) deal() string {
	if len(st.deck) == 0 {
		st.deck = append(st.deck, st.kinds...)
		st.rng.Shuffle(len(st.deck), func(i, j int) { st.deck[i], st.deck[j] = st.deck[j], st.deck[i] })
	}
	k := st.deck[len(st.deck)-1]
	st.deck = st.deck[:len(st.deck)-1]
	return k
}

// fresh reports whether the planted query text is new to the stream.
func (st *stream) fresh(q string) bool {
	if st.seen[q] {
		return false
	}
	st.seen[q] = true
	return true
}

// federatedRead plants a fresh query: region-local (enumerate, optimize
// or path; the regions take turns) or, for a cross op, a 4-node query
// whose plant spans both regions, pinned to the sampled regions by a
// node constraint so only cross-shard decomposition can answer it.
func (st *stream) federatedRead(o *op) {
	if o.cross {
		for {
			q, plant := planted(st.host, 4, 4, st.rng)
			if spansRegions(st.host, plant) && st.fresh(q) {
				o.query, o.cross, o.plant, o.body = q, true, names(st.host, plant), readBody(kindEmbed, q, true)
				return
			}
		}
	}
	var region *graph.Graph
	region, o.region = st.west, "west"
	if st.locals%2 == 1 {
		region, o.region = st.east, "east"
	}
	st.locals++
	n, e := 6, 9
	if o.kind == kindPath {
		n, e = 4, 4
	}
	for {
		q, plant := planted(region, n, e, st.rng)
		if st.fresh(q) {
			o.query, o.plant, o.body = q, names(region, plant), readBody(o.kind, q, false)
			return
		}
	}
}

func spansRegions(host *graph.Graph, plant []graph.NodeID) bool {
	seen := map[string]bool{}
	for _, id := range plant {
		l, _ := host.Node(id).Attrs.Text(regionAttr)
		seen[l] = true
	}
	return len(seen) > 1
}

// nextDelta drifts the delays of 4 random hosting edges, the monitor's
// republish pattern. Each new value is the edge's generated value times
// a factor in [1-driftPct, 1+driftPct], so drift never accumulates past
// the planted windows' slack.
func (st *stream) nextDelta(rng *rand.Rand) ([]byte, *graph.Delta) {
	d := &graph.Delta{}
	var w wireDelta
	for i := 0; i < 4; i++ {
		e := st.host.Edge(graph.EdgeID(rng.Intn(st.host.NumEdges())))
		src, dst := st.host.Node(e.From).Name, st.host.Node(e.To).Name
		vals := map[string]float64{}
		var set graph.Attrs
		for _, attr := range []string{"minDelay", "avgDelay", "maxDelay"} {
			base, _ := e.Attrs.Float(attr)
			v := base * (1 + (rng.Float64()*2-1)*driftPct)
			vals[attr] = v
			set = set.SetNum(attr, v)
		}
		w.SetEdgeAttrs = append(w.SetEdgeAttrs, wireEdgeAttrs{Source: src, Target: dst, Attrs: vals})
		d.SetEdgeAttrs = append(d.SetEdgeAttrs, graph.EdgeAttrUpdate{Source: src, Target: dst, Set: set})
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return b, d
}

// probeDelta returns the next delta of the delta-only probe phase.
func (st *stream) probeDelta() op {
	st.mu.Lock()
	defer st.mu.Unlock()
	o := op{seq: st.seq, kind: kindDelta}
	st.seq++
	o.body, o.delta = st.nextDelta(st.drift)
	return o
}
