// Serve-path performance layer: the request-side allocation sinks that
// profiling BenchmarkServePath surfaced, and what replaces each.
//
//   - Query decode. Every handler receives the query network as GraphML
//     text, and decoding it cost ~1800 allocations for a small query —
//     most of a warm request — although clients resubmit a handful of
//     query shapes verbatim. queryCache memoizes raw GraphML text →
//     decoded *graph.Graph under a small LRU; decoded graphs are
//     immutable by the service's copy-on-write discipline (Negotiate
//     clones before relaxing windows, and no handler mutates a decoded
//     query), so one decode serves every byte-identical resubmission.
//   - Request fingerprint. The engine's result-cache key hashed through
//     a hash.Hash, escaping a scratch array per field and re-sorting
//     every attribute bag into a fresh slice (~200 allocations per
//     request). engine.requestKey now append-encodes the same fields
//     into a pooled buffer, sorts attribute names in a stack-backed
//     slice, and indexes the cache by a fixed-size {fingerprint,
//     version} struct: no allocation once warm.
//   - Reply encode. Every reply rented a fresh encoder buffer, and a
//     result-cache hit re-rendered the same immutable answer — stats,
//     mappings and all — on every repeat. writeJSON rents buffers from
//     a sync.Pool (httpapi.go), and replyCache keeps the encoded bytes
//     of each cache-hit answer so a repeat is a map lookup and a write.
//
// GET /stats additionally reports the serve-path gauges defined here:
// runtime memory counters, the model's snapshot-retirement epochs and the
// query-cache hit ratio, nested beside the flat engine counters.
package httpapi

import (
	"bytes"
	"container/list"
	"net/http"
	"runtime"
	"sync"

	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
)

// defaultQueryCacheCap bounds the decoded-query LRU. Steady workloads
// cycle a few dozen query shapes; 256 keeps the worst-case footprint
// (256 small query graphs plus their GraphML keys) in the low megabytes.
const defaultQueryCacheCap = 256

// queryCache is a mutex-guarded LRU from raw GraphML text to the decoded
// query graph. Values are shared across requests and MUST be treated as
// immutable by every caller.
type queryCache struct {
	mu     sync.Mutex
	cap    int
	m      map[string]*list.Element
	l      list.List // front = most recently used
	hits   uint64
	misses uint64
}

type queryCacheEntry struct {
	key string
	g   *graph.Graph
}

func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		capacity = defaultQueryCacheCap
	}
	c := &queryCache{cap: capacity, m: make(map[string]*list.Element)}
	c.l.Init()
	return c
}

// decode returns the parsed query for raw, serving repeats from the LRU.
// Decode errors are returned without caching (malformed documents are not
// worth an entry). Concurrent misses on the same key may decode twice;
// the last insert wins, which is harmless because decoded graphs of the
// same text are interchangeable.
func (c *queryCache) decode(raw string) (*graph.Graph, error) {
	c.mu.Lock()
	if el, ok := c.m[raw]; ok {
		c.l.MoveToFront(el)
		c.hits++
		g := el.Value.(*queryCacheEntry).g
		c.mu.Unlock()
		return g, nil
	}
	c.misses++
	c.mu.Unlock()

	g, err := graphml.DecodeString(raw)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if el, ok := c.m[raw]; ok {
		// Lost the decode race; keep the incumbent so repeated lookups
		// return a stable pointer.
		c.l.MoveToFront(el)
		g = el.Value.(*queryCacheEntry).g
	} else {
		c.m[raw] = c.l.PushFront(&queryCacheEntry{key: raw, g: g})
		if c.l.Len() > c.cap {
			oldest := c.l.Back()
			c.l.Remove(oldest)
			delete(c.m, oldest.Value.(*queryCacheEntry).key)
		}
	}
	c.mu.Unlock()
	return g, nil
}

func (c *queryCache) stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.l.Len()
}

// defaultReplyCacheCap bounds the encoded-reply memo; it matches the
// engine's default result-cache capacity, whose answers it mirrors.
const defaultReplyCacheCap = 512

// replyCache memoizes the wire bytes of result-cache hits on /embed.
// Cached *service.Response values are immutable and shared by every hit
// on their (fingerprint, model version), so the reply — always the same
// answer with cached: true — is encoded once per response and replayed
// byte for byte. A model publish needs no invalidation: the engine's
// cache misses at the new version and hands back new responses, which
// get entries of their own; entries of older versions are dropped first
// when the memo is full.
type replyCache struct {
	mu  sync.Mutex
	cap int
	m   map[*service.Response][]byte
}

func newReplyCache(capacity int) *replyCache {
	if capacity <= 0 {
		capacity = defaultReplyCacheCap
	}
	return &replyCache{cap: capacity, m: make(map[*service.Response][]byte)}
}

// write sends the cache-hit reply for resp, encoding it on first use.
func (c *replyCache) write(w http.ResponseWriter, resp *service.Response) {
	c.mu.Lock()
	body, ok := c.m[resp]
	c.mu.Unlock()
	if !ok {
		out := embedResponseJSON(resp)
		out.Cached = true
		var buf bytes.Buffer
		if err := encodeJSON(&buf, out); err != nil {
			writeJSON(w, http.StatusOK, out) // reports the encoding failure
			return
		}
		body = buf.Bytes()
		c.put(resp, body)
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// put stores an encoded reply. When the memo is full it first drops
// every entry answered at another model version than resp (the result
// cache can no longer return them), then an arbitrary one.
func (c *replyCache) put(resp *service.Response, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.cap {
		for r := range c.m {
			if r.ModelVersion != resp.ModelVersion {
				delete(c.m, r)
			}
		}
	}
	if len(c.m) >= c.cap {
		for r := range c.m {
			delete(c.m, r)
			break
		}
	}
	c.m[resp] = body
}

// responseBufPool recycles the JSON encoding buffers writeJSON rents.
// Buffers that grew past maxPooledResponseBuf (a giant /embed answer with
// thousands of mappings) are dropped instead of pinned.
var responseBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledResponseBuf = 1 << 20

// serveStatsJSON nests the serve-path gauges beside the flat engine
// counters on GET /stats: runtime memory state, the model's
// snapshot-retirement epochs and the query-decode cache ratio. It is
// embedded (untagged) so the engine fields stay at the top level for
// existing clients.
type serveStatsJSON struct {
	Model   service.EpochStats `json:"model"`
	Runtime runtimeStatsJSON   `json:"runtime"`
	API     apiStatsJSON       `json:"api"`
}

// runtimeStatsJSON is the slice of runtime.MemStats the load harness
// diffs across a run to report server-side allocation behavior.
type runtimeStatsJSON struct {
	HeapAllocBytes  uint64 `json:"heapAllocBytes"`
	HeapObjects     uint64 `json:"heapObjects"`
	TotalAllocBytes uint64 `json:"totalAllocBytes"`
	Mallocs         uint64 `json:"mallocs"`
	Frees           uint64 `json:"frees"`
	NumGC           uint32 `json:"numGC"`
	PauseTotalNs    uint64 `json:"pauseTotalNs"`
	NumGoroutine    int    `json:"numGoroutine"`
}

type apiStatsJSON struct {
	QueryCacheHits    uint64 `json:"queryCacheHits"`
	QueryCacheMisses  uint64 `json:"queryCacheMisses"`
	QueryCacheEntries int    `json:"queryCacheEntries"`
}

func (s *Server) serveSections() serveStatsJSON {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	hits, misses, entries := s.queries.stats()
	return serveStatsJSON{
		Model: s.svc.Model().EpochStats(),
		Runtime: runtimeStatsJSON{
			HeapAllocBytes:  ms.HeapAlloc,
			HeapObjects:     ms.HeapObjects,
			TotalAllocBytes: ms.TotalAlloc,
			Mallocs:         ms.Mallocs,
			Frees:           ms.Frees,
			NumGC:           ms.NumGC,
			PauseTotalNs:    ms.PauseTotalNs,
			NumGoroutine:    runtime.NumGoroutine(),
		},
		API: apiStatsJSON{
			QueryCacheHits:    hits,
			QueryCacheMisses:  misses,
			QueryCacheEntries: entries,
		},
	}
}
