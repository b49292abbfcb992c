package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"netembed/internal/graph"
	"netembed/internal/service"
)

// fingerprint is a request's cache identity: the SHA-256 of its
// canonical serialization (see requestKey).
type fingerprint [sha256.Size]byte

// keyBufPool recycles the buffers requestKey serializes into, so a
// fingerprint costs one pass over the request and no allocation once
// the pool is warm. Buffers that grew past maxPooledKeyBuf (a query with
// thousands of attributed elements) are dropped instead of pinned.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledKeyBuf = 1 << 20

// requestKey fingerprints everything that determines a request's answer
// except the hosting network itself: a canonical serialization of the
// query (nodes and edges in ID order, attributes sorted by name — equal
// graphs hash equally), the constraint sources, and every result-shaping
// option. Fields are appended little-endian and length-prefixed into a
// pooled buffer, which is hashed once with sha256.Sum256; nothing
// escapes to the heap per request. The model version is NOT part of this
// hash; the cache composes it separately so a monitor publish
// invalidates every entry at once without rehashing.
//
// Requests that depend on state outside the model snapshot are not
// cacheable: ExcludeReserved answers change with the ledger, and a
// caller-supplied Stop hook can truncate the search at an arbitrary
// point, so its (partial) answer must never be replayed to other
// callers. Those return ok=false.
//
// The keycomplete analyzer holds this function to the request types it
// serializes: every exported field below must be hashed (or gate
// cacheability) here, so a new request knob cannot silently alias cache
// entries.
//
//keycomplete:fingerprint service.Request
//keycomplete:fingerprint service.PathRequestOptions
//keycomplete:fingerprint core.ConsolidateOptions
//keycomplete:fingerprint core.MetricSpec
//keycomplete:fingerprint core.Objective
func requestKey(req service.Request) (fingerprint, bool) {
	if req.Query == nil || req.ExcludeReserved || req.Stop != nil || req.OnImprove != nil {
		return fingerprint{}, false
	}
	bp := keyBufPool.Get().(*[]byte)
	b := appendGraph((*bp)[:0], req.Query)
	b = appendString(b, req.EdgeConstraint)
	b = appendString(b, req.NodeConstraint)
	b = appendString(b, string(req.Algorithm))
	// Optimizing-search knobs: the objective is a pure value, so it joins
	// the fingerprint field-by-field — two requests differing only in
	// objective kind, attribute or weight must never alias.
	b = appendUint(b, boolBit(req.Optimize))
	b = appendUint(b, uint64(req.Objective.Kind))
	b = appendString(b, req.Objective.Attr)
	b = appendUint(b, math.Float64bits(req.Objective.Weight))
	b = appendString(b, req.Consolidate.CapacityAttr)
	b = appendString(b, req.Consolidate.DemandAttr)
	b = appendUint(b, uint64(req.Timeout))
	b = appendUint(b, uint64(req.MaxResults))
	b = appendUint(b, uint64(req.Seed))
	b = appendUint(b, boolBit(req.DedupeSymmetric))
	b = appendUint(b, math.Float64bits(req.Consolidate.DefaultCapacity))
	b = appendUint(b, boolBit(req.Consolidate.Loopback != nil))
	b = appendAttrs(b, req.Consolidate.Loopback)
	// Path-mode tuning: two path requests differing in hop bound, window
	// attributes or metric conjunction have different answers, so every
	// field joins the fingerprint.
	b = appendUint(b, uint64(req.Path.MaxHops))
	b = appendString(b, req.Path.DelayAttr)
	b = appendString(b, req.Path.WindowLo)
	b = appendString(b, req.Path.WindowHi)
	b = appendUint(b, uint64(len(req.Path.Metrics)))
	for _, spec := range req.Path.Metrics {
		b = appendString(b, spec.Attr)
		b = appendUint(b, uint64(spec.Rule))
		b = appendString(b, spec.LoAttr)
		b = appendString(b, spec.HiAttr)
		b = appendUint(b, math.Float64bits(spec.MissingEdge))
		b = appendUint(b, boolBit(spec.MissingFails))
	}
	fp := fingerprint(sha256.Sum256(b))
	if cap(b) <= maxPooledKeyBuf {
		*bp = b
		keyBufPool.Put(bp)
	}
	return fp, true
}

// appendGraph appends a canonical, collision-framed serialization of g:
// orientation, then nodes in ID order (name + attrs), then edges in ID
// order (endpoints + attrs). Attribute maps are serialized in sorted
// name order so equal graphs always produce equal bytes (the GraphML
// encoder is canonical the same way since its key IDs were pinned to
// sorted-name order, but serializing the in-memory form stays cheaper).
func appendGraph(b []byte, g *graph.Graph) []byte {
	b = appendUint(b, boolBit(g.Directed()))
	b = appendUint(b, uint64(g.NumNodes()))
	b = appendUint(b, uint64(g.NumEdges()))
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		b = appendString(b, n.Name)
		b = appendAttrs(b, n.Attrs)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		b = appendUint(b, uint64(e.From))
		b = appendUint(b, uint64(e.To))
		b = appendAttrs(b, e.Attrs)
	}
	return b
}

// attrSortStack sizes the stack-backed name slice appendAttrs sorts;
// query elements carry a handful of attributes, so larger bags (which
// spill to the heap) are rare.
const attrSortStack = 16

func appendAttrs(b []byte, a graph.Attrs) []byte {
	var stack [attrSortStack]string
	names := stack[:0]
	for name, v := range a {
		if !v.IsMissing() {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	b = appendUint(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
		v := a[name]
		b = appendUint(b, uint64(v.Kind()))
		switch v.Kind() {
		case graph.Number:
			f, _ := v.Float()
			b = appendUint(b, math.Float64bits(f))
		case graph.String:
			s, _ := v.Text()
			b = appendString(b, s)
		case graph.Bool:
			t, _ := v.Truth()
			b = appendUint(b, boolBit(t))
		}
	}
	return b
}

// appendString length-prefixes s so adjacent fields cannot alias.
func appendString(b []byte, s string) []byte {
	return append(appendUint(b, uint64(len(s))), s...)
}

func appendUint(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cacheKey indexes the result cache: a request fingerprint at one model
// version.
type cacheKey struct {
	fp      fingerprint
	version uint64
}

// cacheEntry pairs a cached response with its index key. Responses are
// shared across callers and must be treated as immutable.
type cacheEntry struct {
	key  cacheKey
	resp *service.Response
}

// resultCache is a small LRU of embedding answers keyed by (request
// fingerprint, model version). Entries for stale model versions are
// unreachable by construction (the current version is part of every
// lookup) and are swept out by the engine tick.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *cacheEntry
	idx map[cacheKey]*list.Element
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[cacheKey]*list.Element),
	}
}

// get returns the cached response for the request fingerprint at the
// given model version, if any.
func (c *resultCache) get(fp fingerprint, version uint64) (*service.Response, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[cacheKey{fp, version}]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// put stores a response under the request fingerprint and model version,
// evicting the least-recently-used entry when over capacity.
func (c *resultCache) put(fp fingerprint, version uint64, resp *service.Response) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{fp, version}
	if el, ok := c.idx[k]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	c.idx[k] = c.ll.PushFront(&cacheEntry{key: k, resp: resp})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		delete(c.idx, oldest.Value.(*cacheEntry).key)
		c.ll.Remove(oldest)
	}
}

// sweep drops every entry whose model version differs from current —
// they can never be hit again once the monitor has published a newer
// snapshot. Returns how many were dropped.
func (c *resultCache) sweep(current uint64) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.version != current {
			delete(c.idx, e.key)
			c.ll.Remove(el)
			n++
		}
		el = next
	}
	return n
}

// len reports the live entry count.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
