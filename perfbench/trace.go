package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netembed/internal/core"
	"netembed/internal/engine"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/index"
	"netembed/internal/lifecycle"
	"netembed/internal/service"
	"netembed/internal/service/httpapi"
)

// The traced run replays a workload's stream — same seed, same order,
// same delta placement — sequentially and in-process, against stacks
// assembled from the constructors netembedd uses. It records a span
// around every call the benchmark makes into a layer's public function.
// Each step runs on its own instance, warmed with the same stream, so
// one layer's cache never hides another layer's work:
//
//	A  the HTTP stack (httpapi.Server, or a ClusterServer over two
//	   in-process shards): client round trip and the wrapped handler
//	B  federated only: a second coordinator called directly, with its
//	   shard clients wrapped (Coordinator.Embed/ApplyDelta,
//	   RemoteShard.Embed)
//	E  an engine: Engine.Submit and Wait
//	S  a service, called when E had to search (not a cache hit):
//	   Service.Embed; deltas: Model.Apply
//	C  the core sequence, run when S ran: expr.Compile → core.NewProblem
//	   → core.BuildFilters → search (or PathEmbed), on the reference host
//	   with its own index; deltas: Index.Apply
//
// graphml.DecodeString is timed when the query text is new to the run,
// which is when the daemon's decoded-query cache misses. E, S and C
// answer as one full-host daemon would, also on the federated workload.

// span is one timed call. Times are offsets from the tracer's start.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Self   int64  `json:"selfNs"`
	Note   string `json:"note,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0 time.Time
	mu sync.Mutex
	// spans is every recorded span; kept in memory, written at exit.
	spans []span
	// recording is off during warm-up.
	recording bool
	// req and kind describe the operation being replayed; parent is the
	// span wrapped handlers and shard clients attach to. The replay is
	// sequential, but handlers run on server goroutines.
	req    atomic.Int64
	kind   atomic.Value
	parent atomic.Int64
}

// start opens a span and returns its ID (0 when not recording).
func (t *tracer) start(name string, parent int64) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.recording {
		return 0
	}
	id := int64(len(t.spans) + 1)
	kind, _ := t.kind.Load().(string)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req.Load(), Name: name, Kind: kind, Start: now})
	return id
}

func (t *tracer) end(id int64) {
	now := time.Since(t.t0).Nanoseconds()
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) note(id int64, note string) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Note = note
	t.mu.Unlock()
}

// durations returns the milliseconds of every span named name whose
// operation kind passes keep (nil keeps all).
func (t *tracer) durations(name string, keep func(*span) bool) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// write computes self times and writes the spans as JSON lines.
func (t *tracer) write(path string) error {
	child := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		s.Self = s.End - s.Start - child[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler wraps an http.Handler in a span under the current client
// span.
type tracedHandler struct {
	t    *tracer
	name string
	h    http.Handler
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := th.t.start(th.name, th.t.parent.Load())
	th.h.ServeHTTP(w, r)
	th.t.end(id)
}

// tracedShard wraps a coordinator's shard client, timing Embed under the
// current coordinator span.
type tracedShard struct {
	service.Shard
	t *tracer
}

func (s tracedShard) Embed(req service.Request) (*service.Response, error) {
	id := s.t.start("coordinator.shard_embed", s.t.parent.Load())
	defer s.t.end(id)
	return s.Shard.Embed(req)
}

// daemonStack is one in-process equivalent of a netembedd daemon.
type daemonStack struct {
	model *service.Model
	svc   *service.Service
	eng   *engine.Engine
	api   *httpapi.Server
}

func newDaemonStack(host *graph.Graph) *daemonStack {
	model := service.NewModel(host)
	model.EnableIndex(index.Config{})
	svc := service.New(model, service.Config{DefaultTimeout: 30 * time.Second, DefaultPathHops: pathHops})
	eng := engine.New(svc, engine.Config{QueueDepth: 128, CacheCapacity: 512})
	api := httpapi.NewWithEngine(svc, eng)
	mgr := lifecycle.NewManager(svc, lifecycle.Config{RepairInterval: 5 * time.Second, MaxMigrationFrac: 1})
	eng.SetMaintainer(mgr)
	api.AttachLifecycle(mgr)
	return &daemonStack{model: model, svc: svc, eng: eng, api: api}
}

func (d *daemonStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.eng.Close(ctx) // every job has finished; a cut-short drain changes nothing measured
}

// fedStack is an in-process federation: two region shards served over
// loopback HTTP and a coordinator with RemoteShard clients to them.
type fedStack struct {
	shards  []*daemonStack
	servers []*httptest.Server
	coord   *service.Coordinator
}

// newFedStack also returns how long partitioning the host into regions
// took (the coordinator's boot-time cut-edge extraction).
func newFedStack(hostXML string, t *tracer, wrap bool) (*fedStack, time.Duration, error) {
	fs := &fedStack{}
	var shards []service.Shard
	for _, region := range []string{"west", "east"} {
		host, err := graphml.DecodeString(hostXML)
		if err != nil {
			return nil, 0, err
		}
		sub := regionSubgraph(host, region)
		st := newDaemonStack(sub)
		st.api.ConfigureShard(region, []string{region})
		srv := httptest.NewServer(st.api)
		fs.shards, fs.servers = append(fs.shards, st), append(fs.servers, srv)
		rs, err := httpapi.NewRemoteShard(srv.URL, httpapi.RemoteShardConfig{Name: region})
		if err != nil {
			return nil, 0, err
		}
		if wrap {
			shards = append(shards, tracedShard{Shard: rs, t: t})
		} else {
			shards = append(shards, rs)
		}
	}
	host, err := graphml.DecodeString(hostXML)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	part, err := graph.PartitionByAttr(host, regionAttr, "unassigned", nil)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	fs.coord, err = service.NewCoordinator(shards, service.CoordinatorConfig{
		RegionAttr: regionAttr, DefaultTimeout: 15 * time.Second, Boundary: part.Cuts, Directed: host.Directed(),
	})
	return fs, took, err
}

func (fs *fedStack) close() {
	for i, srv := range fs.servers {
		srv.Close()
		fs.shards[i].close()
	}
}

// replay holds the instances of a traced run and what it measured
// outside spans.
type replay struct {
	t        *tracer
	sp       spec
	hist     *hostHistory
	comp     *compiled
	client   *http.Client
	frontURL string

	coordB *service.Coordinator // federated step B
	eng    *engine.Engine       // step E
	engSvc *service.Service     // the service behind E (deltas keep its cache honest)
	svc    *service.Service     // step S
	ix     *index.Index         // step C's index over the reference host

	decoded map[string]bool // query texts the daemon has decoded

	respBytes, reads int
	allocBytes       uint64 // bytes allocated over step A, reads and deltas
	ops              int
	queueWaits       []float64
	liveEpochsMax    int
	coreRuns         int
	coreMallocs      uint64
	coreStats        core.Stats
	pathProbes       int64
	pathHits         int64
	inconclusive     int
	coordEmbeds      int
	crossTried       int
	crossFound       int
	wrong            int
	firstBad         error
}

func (r *replay) fail(err error) {
	r.wrong++
	if r.firstBad == nil {
		r.firstBad = err
	}
}

// request converts a generated /embed body into the service request the
// daemon's handler builds from it.
func (r *replay) request(o op) (service.Request, wireEmbed, error) {
	var w wireEmbed
	if err := json.Unmarshal(o.body, &w); err != nil {
		return service.Request{}, w, err
	}
	q, err := r.comp.query(w.Query)
	if err != nil {
		return service.Request{}, w, err
	}
	req := service.Request{
		Query: q, EdgeConstraint: w.EdgeConstraint, NodeConstraint: w.NodeConstraint,
		Algorithm: service.Algorithm(w.Algorithm), Timeout: time.Duration(w.TimeoutMs) * time.Millisecond,
		MaxResults: w.MaxResults, Path: service.PathRequestOptions{MaxHops: w.MaxHops},
	}
	if w.Objective != nil {
		req.Objective = core.Objective{Kind: core.ObjectiveAttrCost, Attr: w.Objective.Attr}
		req.Optimize = true
	}
	return req, w, nil
}

// step runs one operation through every instance.
func (r *replay) step(o op) {
	r.t.req.Add(1)
	r.t.kind.Store(o.kind)
	r.ops++
	if o.kind == kindDelta {
		r.stepDelta(o)
	} else {
		r.stepRead(o)
	}
	if n := r.svc.Model().EpochStats().LiveEpochs; n > r.liveEpochsMax {
		r.liveEpochsMax = n
	}
}

// roundTrip is step A: one request over loopback HTTP, timed by the
// client and by the wrapped handler.
func (r *replay) roundTrip(path string, body []byte) (reply, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	id := r.t.start("client.roundtrip", 0)
	r.t.parent.Store(id)
	rep, err := postJSON(r.client, r.frontURL+path, body)
	r.t.end(id)
	runtime.ReadMemStats(&ms)
	r.allocBytes += ms.TotalAlloc - before
	return rep, err
}

func (r *replay) stepRead(o op) {
	acked, _ := r.hist.live()
	rep, err := r.roundTrip("/embed", o.body)
	if err != nil || rep.status != http.StatusOK {
		r.fail(fmt.Errorf("op %d: /embed status %d: %v %s", o.seq, rep.status, err, rep.body))
		return
	}
	r.respBytes += len(rep.body)
	r.reads++
	var ans embedAnswer
	if err := json.Unmarshal(rep.body, &ans); err != nil {
		r.fail(err)
		return
	}
	ans.answeredBy = rep.answeredBy
	hosts := r.hist.between(acked, acked)
	if !r.sp.federated {
		h, ok := r.hist.byVersion(ans.ModelVersion)
		if !ok {
			r.fail(fmt.Errorf("op %d: answer at unknown model version %d", o.seq, ans.ModelVersion))
			return
		}
		hosts = []*graph.Graph{h}
	}
	if _, err := r.comp.checkAnswer(o, &ans, hosts[0]); err != nil {
		r.fail(fmt.Errorf("op %d (%s): %w", o.seq, o.kind, err))
	}

	req, wire, err := r.request(o)
	if err != nil {
		r.fail(err)
		return
	}
	if r.coordB != nil {
		id := r.t.start("coordinator.embed", 0)
		r.t.parent.Store(id)
		resp, where, err := r.coordB.Embed(req)
		r.t.end(id)
		r.t.note(id, where)
		if err != nil {
			r.fail(fmt.Errorf("op %d: Coordinator.Embed: %w", o.seq, err))
		} else if r.t.recording {
			r.coordEmbeds++
			if where == "coordinator" || strings.HasPrefix(where, "cross:") {
				r.crossTried++
				if len(resp.Named) > 0 {
					r.crossFound++
				}
			}
		}
	}

	if !r.decoded[o.query] {
		r.decoded[o.query] = true
		id := r.t.start("graphml.decode", 0)
		_, err := graphml.DecodeString(o.query)
		r.t.end(id)
		if err != nil {
			r.fail(err)
		}
	}

	id := r.t.start("engine.submit", 0)
	job, err := r.eng.Submit(req)
	r.t.end(id)
	if err != nil {
		r.fail(fmt.Errorf("op %d: Engine.Submit: %w", o.seq, err))
		return
	}
	id = r.t.start("engine.wait", 0)
	info, err := r.eng.Wait(context.Background(), job.ID())
	r.t.end(id)
	if err != nil || info.State != engine.StateDone {
		r.fail(fmt.Errorf("op %d: engine job %v: %v %v", o.seq, info.State, err, info.Err))
		return
	}
	if info.FromCache {
		return
	}
	if r.t.recording {
		r.queueWaits = append(r.queueWaits, float64(info.Started.Sub(info.Submitted))/float64(time.Millisecond))
	}
	id = r.t.start("service.embed", 0)
	_, err = r.svc.Embed(req)
	r.t.end(id)
	if err != nil {
		r.fail(fmt.Errorf("op %d: Service.Embed: %w", o.seq, err))
	}
	r.coreSequence(o, wire)
}

// coreSequence is step C for a read.
func (r *replay) coreSequence(o op, w wireEmbed) {
	q, err := r.comp.query(w.Query)
	if err != nil {
		r.fail(err)
		return
	}
	_, newest := r.hist.live()
	host := r.hist.between(newest, newest)[0]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	id := r.t.start("expr.compile", 0)
	var edgeProg, nodeProg *expr.Program
	if w.EdgeConstraint != "" {
		edgeProg, err = expr.Compile(w.EdgeConstraint)
	}
	if err == nil && w.NodeConstraint != "" {
		nodeProg, err = expr.Compile(w.NodeConstraint)
	}
	r.t.end(id)
	if err != nil {
		r.fail(err)
		return
	}
	id = r.t.start("core.problem", 0)
	p, err := core.NewProblem(q, host, edgeProg, nodeProg)
	r.t.end(id)
	if err != nil {
		r.fail(err)
		return
	}
	timeout := time.Duration(w.TimeoutMs) * time.Millisecond
	var st core.Stats
	var status core.Status
	if o.kind == kindPath {
		id = r.t.start("core.path", 0)
		res := core.PathEmbed(p, core.PathOptions{MaxHops: w.MaxHops, Timeout: timeout, MaxSolutions: w.MaxResults, Index: r.ix})
		r.t.end(id)
		st, status = res.Stats, res.Status
	} else {
		opt := core.Options{Timeout: timeout, MaxSolutions: w.MaxResults, Index: r.ix}
		name := "core.search"
		if w.Objective != nil {
			opt.Optimize, opt.Objective, name = true, core.Objective{Kind: core.ObjectiveAttrCost, Attr: w.Objective.Attr}, "core.optimize"
		}
		id = r.t.start("core.filters", 0)
		f := core.BuildFilters(p, &opt)
		r.t.end(id)
		id = r.t.start(name, 0)
		res := core.ECFWithFilters(f, opt)
		r.t.end(id)
		st, status = res.Stats, res.Status
	}
	runtime.ReadMemStats(&ms)
	if !r.t.recording {
		return
	}
	r.coreRuns++
	r.coreMallocs += ms.Mallocs - mallocs
	r.pathProbes += st.WitnessProbes
	r.pathHits += st.WitnessHits
	if status == core.StatusInconclusive {
		r.inconclusive++
	}
	r.coreStats.EdgePairsEval += st.EdgePairsEval
	r.coreStats.FilterEntries += st.FilterEntries
	r.coreStats.NodesVisited += st.NodesVisited
	r.coreStats.Backtracks += st.Backtracks
	r.coreStats.BoundCuts += st.BoundCuts
}

func (r *replay) stepDelta(o op) {
	_, prevIdx := r.hist.live()
	prev := r.hist.between(prevIdx, prevIdx)[0]
	idx, err := r.hist.prepare(o.delta)
	if err != nil {
		r.fail(err)
		return
	}
	next := r.hist.between(idx, idx)[0]
	r.hist.send(idx)
	rep, err := r.roundTrip("/deltas", o.body)
	ok := err == nil && rep.status == http.StatusOK
	r.hist.settle(idx, ok)
	if !ok {
		r.fail(fmt.Errorf("delta %d: status %d: %v %s", o.seq, rep.status, err, rep.body))
		return
	}
	if r.coordB != nil {
		id := r.t.start("coordinator.apply_delta", 0)
		_, err := r.coordB.ApplyDelta(o.delta)
		r.t.end(id)
		if err != nil {
			r.fail(fmt.Errorf("delta %d: Coordinator.ApplyDelta: %w", o.seq, err))
		}
	}
	if _, err := r.engSvc.Model().Apply(o.delta); err != nil {
		r.fail(err)
	}
	id := r.t.start("service.apply", 0)
	version, err := r.svc.Model().Apply(o.delta)
	r.t.end(id)
	if err != nil {
		r.fail(err)
	}
	id = r.t.start("index.apply", 0)
	r.ix = r.ix.Apply(prev, next, o.delta, version)
	r.t.end(id)
}

// traceRun performs the traced replay of one workload.
func traceRun(cfg config, sp spec, w *generated) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	t := &tracer{t0: time.Now()}
	t.kind.Store("")

	// Set-up costs, each the median of three.
	var decodes, builds, parts []float64
	var hostCopies []*graph.Graph
	for i := 0; i < 3; i++ {
		start := time.Now()
		g, err := graphml.DecodeString(w.hostXML)
		if err != nil {
			return nil, err
		}
		decodes = append(decodes, ms(time.Since(start)))
		start = time.Now()
		index.Build(g, 0, index.Config{})
		builds = append(builds, ms(time.Since(start)))
		hostCopies = append(hostCopies, g)
	}
	m["graphml.host_decode_ms"] = median(decodes)
	m["index.build_ms"] = median(builds)

	r := &replay{t: t, sp: sp, comp: newCompiled(), decoded: map[string]bool{}, client: newClient()}
	var stackA *daemonStack
	var fedA, fedB *fedStack
	var frontHandler http.Handler
	if sp.federated {
		var pa, pb time.Duration
		var err error
		if fedA, pa, err = newFedStack(w.hostXML, t, false); err != nil {
			return nil, err
		}
		defer fedA.close()
		if fedB, pb, err = newFedStack(w.hostXML, t, true); err != nil {
			return nil, err
		}
		defer fedB.close()
		parts = append(parts, ms(pa), ms(pb))
		frontHandler = httpapi.NewClusterServer(fedA.coord)
		r.coordB = fedB.coord
		r.hist = newHostHistory(w.host, 0)
	} else {
		stackA = newDaemonStack(hostCopies[0])
		defer stackA.close()
		frontHandler = stackA.api
		r.hist = newHostHistory(w.host, stackA.model.Version())
	}
	front := httptest.NewServer(tracedHandler{t: t, name: "httpapi.serve", h: frontHandler})
	defer front.Close()
	r.frontURL = front.URL

	stackE := newDaemonStack(hostCopies[1])
	defer stackE.close()
	r.eng, r.engSvc = stackE.eng, stackE.svc
	stackS := newDaemonStack(hostCopies[2])
	defer stackS.close()
	r.svc = stackS.svc
	r.ix = index.Build(w.host, 0, index.Config{})

	st := newStream(sp, w.host, cfg.seed)
	warm := &phase{name: "warmup"}
	for _, o := range st.warmup(cfg.seed) {
		r.step(o)
		warm.add(record{o: o, ok: true})
	}

	// Counters are diffed from here: the timed replay starts warm.
	statsBefore := r.eng.Stats()
	apiBefore, err := r.apiCache(stackA, fedA)
	if err != nil {
		return nil, err
	}
	var shardBefore int64
	if fedB != nil {
		for _, s := range fedB.shards {
			shardBefore += s.eng.Stats().Submitted
		}
	}
	var embedsBefore []uint64
	if r.coordB != nil {
		for _, s := range r.coordB.Cluster().Shards {
			embedsBefore = append(embedsBefore, s.Embeds)
		}
	}
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	r.allocBytes, r.ops = 0, 0

	t.mu.Lock()
	t.recording = true
	t.mu.Unlock()
	replayed := &phase{name: "replay"}
	openOps := int(sp.rate*sp.openShare*cfg.seconds) + 1
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < openOps && time.Now().Before(deadline); i++ {
		o := st.next()
		wrongBefore := r.wrong
		r.step(o)
		replayed.add(record{o: o, ok: r.wrong == wrongBefore})
	}
	elapsed := time.Since(start)
	t.mu.Lock()
	t.recording = false
	t.mu.Unlock()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	res.phases = []*phase{warm, replayed}
	res.attempted, _, res.failed = replayed.counts()

	isRead := func(s *span) bool { return s.Kind != kindDelta }
	isEmbed := func(s *span) bool { return s.Kind == kindEmbed }
	serve := map[int64]float64{} // client span ID → handler ms
	for _, s := range t.spans {
		if s.Name == "httpapi.serve" && s.Kind != kindDelta {
			serve[s.Parent] = float64(s.dur()) / float64(time.Millisecond)
		}
	}
	var wire []float64
	for _, s := range t.spans {
		if s.Name == "client.roundtrip" && s.Kind != kindDelta {
			wire = append(wire, (float64(s.dur())/float64(time.Millisecond)-serve[s.ID])*1000)
		}
	}
	m["httpapi.serve_us_p50"] = percentile(t.durations("httpapi.serve", isRead), 50) * 1000
	m["httpapi.wire_us_p50"] = percentile(wire, 50)
	m["httpapi.response_bytes"] = float64(r.respBytes) / float64(max(r.reads, 1))
	apiAfter, err := r.apiCache(stackA, fedA)
	if err != nil {
		return nil, err
	}
	hits, misses := apiAfter[0]-apiBefore[0], apiAfter[1]-apiBefore[1]
	m["httpapi.query_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["graphml.query_decode_us_p50"] = percentile(t.durations("graphml.decode", nil), 50) * 1000
	m["expr.compile_us_p50"] = percentile(t.durations("expr.compile", nil), 50) * 1000

	statsAfter := r.eng.Stats()
	m["engine.submit_us_p50"] = percentile(t.durations("engine.submit", nil), 50) * 1000
	engHits, engMisses := statsAfter.CacheHits-statsBefore.CacheHits, statsAfter.CacheMisses-statsBefore.CacheMisses
	m["engine.cache_hit_ratio"] = ratio(engHits, engHits+engMisses)
	m["engine.queue_wait_ms_p50"] = percentile(r.queueWaits, 50)
	m["engine.queue_wait_ms_p90"] = percentile(r.queueWaits, 90)
	m["engine.rejected"] = float64(statsAfter.QueueFullRejections - statsBefore.QueueFullRejections)

	m["service.embed_ms_p50"] = percentile(t.durations("service.embed", nil), 50)
	m["service.embed_ms_p90"] = percentile(t.durations("service.embed", nil), 90)
	m["service.apply_ms_p50"] = percentile(t.durations("service.apply", nil), 50)
	m["service.apply_ms_p90"] = percentile(t.durations("service.apply", nil), 90)
	m["service.live_epochs_max"] = float64(r.liveEpochsMax)
	m["index.apply_ms_p50"] = percentile(t.durations("index.apply", nil), 50)

	runs := float64(max(r.coreRuns, 1))
	m["core.searches"] = float64(r.coreRuns)
	m["core.problem_us_p50"] = percentile(t.durations("core.problem", nil), 50) * 1000
	for _, name := range []string{"filters", "search", "optimize", "path"} {
		d := t.durations("core."+name, nil)
		m["core."+name+"_ms_p50"] = percentile(d, 50)
		m["core."+name+"_ms_p90"] = percentile(d, 90)
	}
	m["core.allocs_per_search"] = float64(r.coreMallocs) / runs
	m["core.edge_pairs_eval"] = float64(r.coreStats.EdgePairsEval) / runs
	m["core.filter_entries"] = float64(r.coreStats.FilterEntries) / runs
	m["core.nodes_visited"] = float64(r.coreStats.NodesVisited) / runs
	m["core.backtracks"] = float64(r.coreStats.Backtracks) / runs
	m["core.bound_cuts"] = float64(r.coreStats.BoundCuts) / runs
	m["core.witness_hit_ratio"] = ratio(r.pathHits, r.pathHits+r.pathProbes)
	m["core.inconclusive_ratio"] = ratio(int64(r.inconclusive), int64(r.coreRuns))

	whereIs := func(pred func(string) bool) func(*span) bool {
		return func(s *span) bool { return pred(s.Note) }
	}
	isCross := func(w string) bool { return strings.HasPrefix(w, "cross:") }
	isLocal := func(w string) bool { return w != "coordinator" && !isCross(w) }
	m["coordinator.local_ms_p50"] = percentile(t.durations("coordinator.embed", whereIs(isLocal)), 50)
	cross := t.durations("coordinator.embed", whereIs(isCross))
	m["coordinator.cross_ms_p50"] = percentile(cross, 50)
	m["coordinator.cross_ms_p90"] = percentile(cross, 90)
	m["coordinator.cross_answers"] = float64(len(cross))
	m["coordinator.cross_found_ratio"] = ratio(int64(r.crossFound), int64(r.crossTried))
	m["coordinator.shard_rtt_ms_p50"] = percentile(t.durations("coordinator.shard_embed", nil), 50)
	m["coordinator.delta_ms_p50"] = percentile(t.durations("coordinator.apply_delta", nil), 50)
	m["graph.partition_ms"] = median(parts)
	if fedB != nil {
		var shardAfter int64
		for _, s := range fedB.shards {
			shardAfter += s.eng.Stats().Submitted
		}
		m["coordinator.shard_calls_per_embed"] = float64(shardAfter-shardBefore) / float64(max(r.coordEmbeds, 1))
		var most, sum uint64
		for i, s := range r.coordB.Cluster().Shards {
			n := s.Embeds - embedsBefore[i]
			sum += n
			most = max(most, n)
		}
		m["coordinator.route_skew"] = ratio(most, sum)
	}

	m["runtime.bytes_per_op"] = float64(r.allocBytes) / float64(max(r.ops, 1))
	m["runtime.gc_pause_ms_per_s"] = float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6 / elapsed.Seconds()
	m["trace.embed_p50_ms"] = percentile(t.durations("client.roundtrip", isEmbed), 50)
	m["trace.spans"] = float64(len(t.spans))

	var unreached []string
	for _, d := range perLayer {
		if v, ok := m[d.name]; !ok || v != v { // NaN: no span of that name
			m[d.name] = 0
			unreached = append(unreached, d.name)
		}
	}
	if len(unreached) > 0 {
		res.notes = append(res.notes, "not reached on this workload (reported 0): "+strings.Join(unreached, " "))
	}
	if sp.federated {
		res.notes = append(res.notes, fmt.Sprintf("complete optimizing answers costlier than the plant, from the shard not holding it (optimal within the answering shard only): %d", r.comp.shardLocal))
	}
	res.notes = append(res.notes, fmt.Sprintf("replayed %d ops in %.2fs; %d spans", r.ops, elapsed.Seconds(), len(t.spans)))
	spanPath := filepath.Join(cfg.outDir, "spans.jsonl")
	if err := t.write(spanPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.notes = append(res.notes, "spans written to "+spanPath)
	res.correct = r.wrong == 0
	if r.firstBad != nil {
		res.notes = append(res.notes, fmt.Sprintf("%d wrong answers; first: %v", r.wrong, r.firstBad))
	}
	return res, nil
}

// apiCache returns the decoded-query cache hits and misses of step A's
// HTTP front (the shards' caches on the federated workload, since the
// coordinator's front serves no /stats).
func (r *replay) apiCache(a *daemonStack, fed *fedStack) ([2]uint64, error) {
	var urls []string
	if a != nil {
		urls = append(urls, r.frontURL)
	} else {
		for _, s := range fed.servers {
			urls = append(urls, s.URL)
		}
	}
	var out [2]uint64
	for _, u := range urls {
		resp, err := r.client.Get(u + "/stats")
		if err != nil {
			return out, err
		}
		var st struct {
			API struct {
				Hits   uint64 `json:"queryCacheHits"`
				Misses uint64 `json:"queryCacheMisses"`
			} `json:"api"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return out, err
		}
		out[0] += st.API.Hits
		out[1] += st.API.Misses
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, NaN when b is 0 (nothing to take a share of).
func ratio[T int64 | uint64](a, b T) float64 {
	if b == 0 {
		return nan
	}
	return float64(a) / float64(b)
}
