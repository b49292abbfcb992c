package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"netembed/internal/service/httpapi"
)

// The untraced run drives real daemons over loopback HTTP with at most
// nproc connections, in three phases:
//
//	open    requests arrive at the workload's fixed rate whether or not
//	        earlier ones finished; each is timed from when it was due
//	closed  nproc clients each send their next request when the last
//	        one returns; completed verified operations per second
//	probe   (workloads without deltas in their stream) deltas alone at a
//	        fixed rate, after the reads, for the delta acknowledgement time
//
// Every answer is verified; see verify.go.

const (
	setupRounds = 7
	probeRate   = 60.0
)

// record is one completed operation.
type record struct {
	o     op
	lat   time.Duration // from due (open loop) or send (closed loop)
	ok    bool          // 2xx and, once the phase is verified, a correct answer
	found bool          // a read answered with at least one mapping
	// answer holds a read's reply until the phase is verified; lo..hi are
	// the host states live while the request was in flight.
	answer     []byte
	answeredBy string
	lo, hi     int
	// window is the sub-window the op was due in (open loop) or
	// completed in (closed loop).
	window int
}

// phase collects one phase's records.
type phase struct {
	name    string
	mu      sync.Mutex
	records []record
	lags    []time.Duration // open loop: how late the generator ran
	elapsed time.Duration
}

func (p *phase) add(r record) {
	p.mu.Lock()
	p.records = append(p.records, r)
	p.mu.Unlock()
}

func (p *phase) counts() (sent, ok, failed int) {
	for _, r := range p.records {
		sent++
		if r.ok {
			ok++
		} else {
			failed++
		}
	}
	return sent, ok, failed
}

// runner sends operations to the daemons and checks the answers.
type runner struct {
	spec   spec
	client *http.Client
	front  *daemon
	hist   *hostHistory
	comp   *compiled

	// genMu serializes generation, so deltas' reference states are
	// prepared in stream order.
	genMu sync.Mutex

	mu       sync.Mutex
	wrong    int   // answers that failed verification
	firstBad error // the first of them, for the report
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong++
	if r.firstBad == nil {
		r.firstBad = err
	}
}

func (r *runner) post(path string, body []byte) (reply, error) {
	return postJSON(r.client, r.front.url(path), body)
}

// reply is a daemon's answer to one request.
type reply struct {
	status int
	body   []byte
	// answeredBy is the shard a coordinator's /embed names as answering
	// (a shard name, or cross:a+b for stitched answers).
	answeredBy string
}

// postJSON sends body and returns the reply.
func postJSON(client *http.Client, url string, body []byte) (reply, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, answeredBy: resp.Header.Get(httpapi.AnsweredByHeader)}, err
}

// do sends one operation. A transport error or a non-2xx status (429
// included) fails it; a read's answer is kept for verify, which runs
// after the phase so the checking does not compete with the daemons for
// CPU while latencies are measured.
func (r *runner) do(o op) record {
	rec := record{o: o}
	if o.kind == kindDelta {
		rec.ok = r.doDelta(o)
		return rec
	}
	rec.lo, _ = r.hist.live()
	rep, err := r.post("/embed", o.body)
	_, rec.hi = r.hist.live()
	if err == nil && rep.status == http.StatusOK {
		rec.ok, rec.answer, rec.answeredBy = true, rep.body, rep.answeredBy
	}
	return rec
}

// verify checks every answer of a phase, then drops the host states no
// later answer can refer to. A wrong answer fails its operation and
// makes the run incorrect.
func (r *runner) verify(p *phase) {
	for i := range p.records {
		rec := &p.records[i]
		if rec.answer == nil {
			continue
		}
		found, err := r.check(rec)
		rec.answer = nil
		if err != nil {
			r.fail(fmt.Errorf("op %d (%s, cross=%v): %w", rec.o.seq, rec.o.kind, rec.o.cross, err))
			rec.ok = false
			continue
		}
		rec.found = found
	}
	r.hist.prune()
}

func (r *runner) check(rec *record) (bool, error) {
	var ans embedAnswer
	if err := json.Unmarshal(rec.answer, &ans); err != nil {
		return false, fmt.Errorf("decode /embed answer: %w", err)
	}
	ans.answeredBy = rec.answeredBy
	if !r.spec.federated {
		host, known := r.hist.byVersion(ans.ModelVersion)
		if !known {
			return false, fmt.Errorf("%w: answer at unknown model version %d", errWrongAnswer, ans.ModelVersion)
		}
		return r.comp.checkAnswer(rec.o, &ans, host)
	}
	// Shard versions are per shard and a stitched answer spans shards, so
	// a federated answer must hold on some hosting state that was live
	// while the request was in flight.
	var lastErr error
	for _, host := range r.hist.between(rec.lo, rec.hi) {
		found, err := r.comp.checkAnswer(rec.o, &ans, host)
		if err == nil {
			return found, nil
		}
		lastErr = err
	}
	return false, lastErr
}

// generator wraps next so that each delta's reference state is built as
// the delta is generated: in stream order and outside every timed
// interval, so a delta's latency is the daemon's work alone.
func (r *runner) generator(next func() op) func() op {
	return func() op {
		r.genMu.Lock()
		defer r.genMu.Unlock()
		o := next()
		if o.kind == kindDelta {
			idx, err := r.hist.prepare(o.delta)
			if err != nil {
				r.fail(err)
				idx = -1
			}
			o.state = idx
		}
		return o
	}
}

// doDelta sends a delta once every earlier one is settled, so the daemon
// applies deltas in the order the reference copy did.
func (r *runner) doDelta(o op) bool {
	if o.state < 0 {
		return false // the reference copy could not apply it; not sent
	}
	r.hist.send(o.state)
	ok := r.postDelta(o)
	r.hist.settle(o.state, ok)
	return ok
}

func (r *runner) postDelta(o op) bool {
	rep, err := r.post("/deltas", o.body)
	if err != nil || rep.status != http.StatusOK {
		// The daemon's state is now unknown to the reference copy.
		r.fail(fmt.Errorf("delta %d not applied (status %d, %v): %s", o.seq, rep.status, err, rep.body))
		return false
	}
	if !r.spec.federated {
		var ack struct {
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(rep.body, &ack); err != nil || ack.Version != r.hist.expected(o.state) {
			r.fail(fmt.Errorf("delta %d acknowledged as version %d, want %d (%v)", o.seq, ack.Version, r.hist.expected(o.state), err))
			return false
		}
	}
	return true
}

// openLoop sends ops at rate for dur from nproc connections, timing each
// from its due time.
func (r *runner) openLoop(p *phase, rate float64, dur time.Duration, next func() op) {
	type job struct {
		o      op
		due    time.Time
		window int
	}
	ops := make([]op, int(rate*dur.Seconds())+1)
	for i := range ops {
		ops[i] = next() // generated before the clock starts
	}
	jobs := make(chan job, len(ops)) // sized to every send, so the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rec := r.do(j.o)
				rec.lat = time.Since(j.due)
				rec.window = j.window
				p.add(rec)
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i, o := range ops {
		due := start.Add(time.Duration(i) * interval)
		pace(due)
		p.lags = append(p.lags, time.Since(due))
		jobs <- job{o, due, i * windows / len(ops)}
	}
	close(jobs)
	wg.Wait()
	p.elapsed = time.Since(start)
}

// spinWindow is how early pace stops sleeping: time.Sleep overshoots by
// up to about a millisecond here, and every request is timed from its due
// time, so an oversleeping generator would count against the daemon.
const spinWindow = 1500 * time.Microsecond

// pace returns at due: it sleeps until spinWindow before, then yields
// in a loop.
func pace(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// closedLoop runs nproc clients back to back for dur.
func (r *runner) closedLoop(p *phase, dur time.Duration, next func() op) {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Time
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := next()
				sent := time.Now()
				rec := r.do(o)
				done := time.Now()
				rec.lat = done.Sub(sent)
				rec.window = min(int(done.Sub(start)*closedWindows/dur), closedWindows-1)
				p.add(rec)
				mu.Lock()
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = last.Sub(start)
}

// serverStats is the slice of GET /stats the benchmark diffs.
type serverStats struct {
	Model struct {
		Version uint64 `json:"version"`
	} `json:"model"`
	Runtime struct {
		Mallocs uint64 `json:"mallocs"`
	} `json:"runtime"`
}

func fetchStats(client *http.Client, d *daemon) (serverStats, error) {
	var st serverStats
	resp, err := client.Get(d.url("/stats"))
	if err != nil {
		return st, fmt.Errorf("GET %s /stats: %w", d.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s /stats: status %d", d.name, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func sumMallocs(client *http.Client, ds []*daemon) (uint64, error) {
	var total uint64
	for _, d := range ds {
		st, err := fetchStats(client, d)
		if err != nil {
			return 0, err
		}
		total += st.Runtime.Mallocs
	}
	return total, nil
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	phases    []*phase
	notes     []string
}

// loadRun performs the untraced run of one workload.
func loadRun(cfg config, sp spec, w *generated) (*result, error) {
	client := newClient()
	res := &result{metrics: map[string]float64{}}

	// Set-up: boot the daemons several times and report the median; the
	// last boot serves the run.
	var setups []float64
	var cl *cluster
	for i := 0; i < setupRounds; i++ {
		if cl != nil {
			setCleanup(nil)
			cl.stop()
		}
		var took time.Duration
		var err error
		cl, took, err = boot(cfg.daemonBin, cfg.outDir, w.hostPath, sp.federated, client)
		if err != nil {
			return nil, err
		}
		setCleanup(cl.stop)
		setups = append(setups, took.Seconds())
	}
	defer func() {
		setCleanup(nil)
		cl.stop()
	}()
	res.metrics["setup_s"] = median(setups)

	version := uint64(0)
	if !sp.federated {
		st, err := fetchStats(client, cl.front)
		if err != nil {
			return nil, err
		}
		version = st.Model.Version
	}
	r := &runner{spec: sp, client: client, front: cl.front, hist: newHostHistory(w.host, version), comp: newCompiled()}
	st := newStream(sp, w.host, cfg.seed)

	warm := &phase{name: "warmup"}
	for _, o := range st.warmup(cfg.seed) {
		warm.add(r.do(o))
	}
	r.verify(warm)

	total := time.Duration(cfg.seconds * float64(time.Second))
	openFrac, closedFrac := sp.openShare, sp.closedShare

	open := &phase{name: "open"}
	before, err := sumMallocs(client, cl.shards)
	if err != nil {
		return nil, err
	}
	r.openLoop(open, sp.rate, time.Duration(openFrac*float64(total)), r.generator(st.next))
	after, err := sumMallocs(client, cl.shards)
	if err != nil {
		return nil, err
	}
	openRSS, err := cl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.verify(open)

	closed := &phase{name: "closed"}
	r.closedLoop(closed, time.Duration(closedFrac*float64(total)), r.generator(st.next))
	r.verify(closed)

	res.phases = []*phase{warm, open, closed}
	deltaPhase := open
	if sp.probeDeltas {
		probe := &phase{name: "probe"}
		r.openLoop(probe, probeRate, total-time.Duration((openFrac+closedFrac)*float64(total)), r.generator(st.probeDelta))
		r.verify(probe)
		res.phases = append(res.phases, probe)
		deltaPhase = probe
	}

	allRSS, err := cl.peakRSSMB()
	if err != nil {
		return nil, err
	}

	m := res.metrics
	for _, kind := range []string{kindEmbed, kindOptimize, kindPath} {
		m[kind+"_p50_ms"] = windowed(open, kind, 50)
	}
	m["delta_p50_ms"] = windowed(deltaPhase, kindDelta, 50)
	// The p90s are printed, not reported as metrics: with one to a few
	// milliseconds of work per request, CPU stolen by other tenants and
	// queueing behind a search on the shared connections decide them, and
	// they moved by 0.3–1.6 of their median between seeds.
	res.notes = append(res.notes, fmt.Sprintf("p90 ms: embed %.3f, optimize %.3f, path %.3f, delta %.3f",
		windowed(open, kindEmbed, 90), windowed(open, kindOptimize, 90),
		windowed(open, kindPath, 90), windowed(deltaPhase, kindDelta, 90)))
	rates := windowRates(closed, time.Duration(closedFrac*float64(total)))
	m["goodput_rps"] = median(rates)
	res.notes = append(res.notes, fmt.Sprintf("closed loop: goodput per sub-window %.1f /s", rates))
	var reads, found int
	for _, p := range []*phase{open, closed} {
		for _, rec := range p.records {
			if rec.o.kind != kindDelta {
				reads++
				if rec.found {
					found++
				}
			}
		}
	}
	m["found_frac"] = float64(found) / float64(max(reads, 1))
	m["allocs_per_op"] = float64(after-before) / float64(max(len(open.records), 1))
	// Peak memory is taken through the open loop, at the workload's fixed
	// offered load. The closed loop's peak depends on how far garbage runs
	// ahead of the collector at whatever rate the machine reaches, so it
	// is printed, not reported.
	m["peak_rss_mb"] = openRSS
	res.notes = append(res.notes, fmt.Sprintf("peak RSS through every phase: %.1f MB", allRSS))

	for _, p := range res.phases {
		sent, _, failed := p.counts()
		if p.name != "warmup" {
			res.attempted += sent
			res.failed += failed
		}
	}
	lagMs := make([]float64, len(open.lags))
	for i, l := range open.lags {
		lagMs[i] = float64(l) / float64(time.Millisecond)
	}
	res.notes = append(res.notes, fmt.Sprintf("open loop: rate %.0f/s, %d due, generator lag p90 %.3f ms, ran %.2fs",
		sp.rate, len(open.lags), percentile(lagMs, 90), open.elapsed.Seconds()))
	if sp.federated {
		res.notes = append(res.notes, fmt.Sprintf("complete optimizing answers costlier than the plant, from the shard not holding it (optimal within the answering shard only): %d", r.comp.shardLocal))
	}
	res.correct = r.wrong == 0
	if r.firstBad != nil {
		res.notes = append(res.notes, fmt.Sprintf("%d wrong answers; first: %v", r.wrong, r.firstBad))
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			res.notes = append(res.notes, fmt.Sprintf("metric %s is %v: no usable samples", name, v))
			res.correct = false
		}
	}
	return res, nil
}

// A loop is split into equal sub-windows: by due time for the open
// loop's latencies, by completion time for the closed loop's goodput. A
// figure is the median over the windows: other tenants of the machine
// slow it for seconds at a time, which then moves a few windows, not the
// figure. The closed loop has more windows because each holds thousands
// of operations (hundreds on federated); an open-loop window's p50 needs
// its tens of samples per read kind.
const (
	windows       = 5
	closedWindows = 9
)

// windowRates returns, for each of a closed loop's sub-windows, the
// verified successful operations completed per second; dur is the loop's
// planned length (its last window runs on to the last completion).
func windowRates(p *phase, dur time.Duration) []float64 {
	var ok [closedWindows]int
	for _, r := range p.records {
		if r.ok {
			ok[r.window]++
		}
	}
	step := dur / closedWindows
	var rates []float64
	for k, n := range ok {
		span := step
		if k == closedWindows-1 {
			span = p.elapsed - time.Duration(closedWindows-1)*step
		}
		rates = append(rates, float64(n)/span.Seconds())
	}
	return rates
}

// windowed returns the median over the phase's sub-windows of the pct-th
// percentile of kind's latencies in milliseconds; a failed op counts as
// infinitely late, so it misses every latency limit.
func windowed(p *phase, kind string, pct float64) float64 {
	var per [windows][]float64
	for _, r := range p.records {
		switch {
		case r.o.kind != kind:
		case r.ok:
			per[r.window] = append(per[r.window], float64(r.lat)/float64(time.Millisecond))
		default:
			per[r.window] = append(per[r.window], math.Inf(1))
		}
	}
	var ps []float64
	for _, lats := range per {
		if len(lats) > 0 {
			ps = append(ps, percentile(lats, pct))
		}
	}
	return median(ps)
}
