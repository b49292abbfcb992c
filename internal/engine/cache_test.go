package engine

import (
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/service"
)

func attrQuery() *graph.Graph {
	g := graph.NewUndirected()
	a := g.AddNode("a", graph.Attrs{}.SetNum("cpu", 2).SetStr("os", "linux").SetBool("gpu", true))
	b := g.AddNode("b", graph.Attrs{}.SetNum("cpu", 4))
	g.MustAddEdge(a, b, graph.Attrs{}.SetNum("minDelay", 1.5).SetNum("maxDelay", 9))
	return g
}

// TestRequestKeyDeterministic pins the property the cache depends on:
// equal requests — including attribute-bearing queries, whose attrs live
// in Go maps with randomized iteration order — always produce the same
// fingerprint, across repetitions and across structurally equal clones.
func TestRequestKeyDeterministic(t *testing.T) {
	req := service.Request{
		Query:          attrQuery(),
		EdgeConstraint: "rEdge.minDelay >= vEdge.minDelay",
		Timeout:        5 * time.Second,
		MaxResults:     3,
	}
	base, ok := requestKey(req)
	if !ok {
		t.Fatal("request unexpectedly uncacheable")
	}
	for i := 0; i < 20; i++ {
		if k, _ := requestKey(req); k != base {
			t.Fatalf("fingerprint drifted on repetition %d: %s vs %s", i, k, base)
		}
	}
	clone := req
	clone.Query = attrQuery() // fresh maps, same content
	if k, _ := requestKey(clone); k != base {
		t.Fatal("structurally equal query hashed differently")
	}
}

// TestRequestKeySensitivity checks every answer-shaping knob moves the
// fingerprint, and that ledger-dependent requests opt out entirely.
func TestRequestKeySensitivity(t *testing.T) {
	base := service.Request{Query: attrQuery(), MaxResults: 1}
	baseKey, _ := requestKey(base)

	mutations := map[string]func(*service.Request){
		"edge constraint":  func(r *service.Request) { r.EdgeConstraint = "true" },
		"node constraint":  func(r *service.Request) { r.NodeConstraint = "true" },
		"algorithm":        func(r *service.Request) { r.Algorithm = service.AlgoRWB },
		"timeout":          func(r *service.Request) { r.Timeout = time.Minute },
		"max results":      func(r *service.Request) { r.MaxResults = 2 },
		"seed":             func(r *service.Request) { r.Seed = 42 },
		"dedupe":           func(r *service.Request) { r.DedupeSymmetric = true },
		"consolidate":      func(r *service.Request) { r.Consolidate.CapacityAttr = "slots" },
		"default capacity": func(r *service.Request) { r.Consolidate.DefaultCapacity = 4 },
		"query attrs": func(r *service.Request) {
			r.Query = attrQuery()
			r.Query.Node(0).Attrs = r.Query.Node(0).Attrs.SetNum("cpu", 3)
		},
		"query topology": func(r *service.Request) {
			r.Query = attrQuery()
			r.Query.AddNode("c", nil)
		},
		"path max hops":   func(r *service.Request) { r.Path.MaxHops = 4 },
		"path delay attr": func(r *service.Request) { r.Path.DelayAttr = "p95Delay" },
		"path window lo":  func(r *service.Request) { r.Path.WindowLo = "floorDelay" },
		"path window hi":  func(r *service.Request) { r.Path.WindowHi = "ceilDelay" },
		"path metrics": func(r *service.Request) {
			r.Path.Metrics = []core.MetricSpec{{Attr: "bandwidth", Rule: core.Bottleneck, LoAttr: "minBandwidth"}}
		},
		"path metric rule": func(r *service.Request) {
			r.Path.Metrics = []core.MetricSpec{{Attr: "bandwidth", Rule: core.Multiplicative, LoAttr: "minBandwidth"}}
		},
		"path missing fails": func(r *service.Request) {
			r.Path.Metrics = []core.MetricSpec{{Attr: "bandwidth", Rule: core.Bottleneck, LoAttr: "minBandwidth", MissingFails: true}}
		},
	}
	for name, mutate := range mutations {
		r := base
		mutate(&r)
		k, ok := requestKey(r)
		if !ok {
			t.Fatalf("%s: unexpectedly uncacheable", name)
		}
		if k == baseKey {
			t.Fatalf("%s: fingerprint did not change", name)
		}
	}

	for name, r := range map[string]service.Request{
		"nil query":        {},
		"exclude reserved": {Query: attrQuery(), ExcludeReserved: true},
		"stop hook":        {Query: attrQuery(), Stop: func() bool { return false }},
	} {
		if _, ok := requestKey(r); ok {
			t.Fatalf("%s: must be uncacheable", name)
		}
	}
}

// TestResultCacheLRU pins capacity eviction and version-keyed lookup.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	a, b, cc := fingerprint{'a'}, fingerprint{'b'}, fingerprint{'c'}
	r1, r2, r3 := &service.Response{}, &service.Response{}, &service.Response{}
	c.put(a, 1, r1)
	c.put(b, 1, r2)
	if _, ok := c.get(a, 2); ok {
		t.Fatal("lookup at the wrong model version hit")
	}
	if got, ok := c.get(a, 1); !ok || got != r1 {
		t.Fatal("expected hit for (a,1)")
	}
	c.put(cc, 1, r3) // evicts b, the least recently used
	if _, ok := c.get(b, 1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.get(a, 1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if swept := c.sweep(2); swept != 2 {
		t.Fatalf("sweep removed %d entries, want 2", swept)
	}
	if c.len() != 0 {
		t.Fatalf("cache not empty after sweep: %d", c.len())
	}
}

// TestRequestKeyFramingUnchanged pins the serialization byte for byte:
// the digests below were produced by the earlier hash.Hash-streaming
// implementation, so the append-encoded fingerprint keeps exactly its
// fields and length-prefix framing.
func TestRequestKeyFramingUnchanged(t *testing.T) {
	full := service.Request{
		Query:          attrQuery(),
		EdgeConstraint: "rEdge.minDelay >= vEdge.minDelay",
		NodeConstraint: "rNode.cpu >= vNode.cpu",
		Algorithm:      service.AlgoPathEmbed,
		Timeout:        5 * time.Second,
		MaxResults:     3,
		Seed:           9,
		Optimize:       true,
		Objective:      core.Objective{Kind: core.ObjectiveAttrCost, Attr: "cpu", Weight: 2},
		Consolidate:    core.ConsolidateOptions{CapacityAttr: "slots", Loopback: graph.Attrs{}.SetNum("bw", 10).SetStr("tag", "x")},
		Path: service.PathRequestOptions{MaxHops: 3, DelayAttr: "d", Metrics: []core.MetricSpec{
			{Attr: "bandwidth", Rule: core.Bottleneck, LoAttr: "minBandwidth", MissingFails: true},
		}},
	}
	for name, c := range map[string]struct {
		req  service.Request
		want string
	}{
		"every field": {full, "aab65406ca5457c69fb940c49a11ebbf3c7485e1f6f850784a3564a58e4fc937"},
		"query only":  {service.Request{Query: attrQuery()}, "ba98a75b7c0265b190a2ed850179c8966d0e1f1796b077319ec785dfdf1d947a"},
	} {
		fp, ok := requestKey(c.req)
		if !ok {
			t.Fatalf("%s: unexpectedly uncacheable", name)
		}
		if got := hex.EncodeToString(fp[:]); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", name, got, c.want)
		}
	}
}

// bagQuery is a one-node query whose node carries n numeric attributes,
// inserted in the given order, plus one Missing-valued attribute (which
// the fingerprint must ignore).
func bagQuery(n int, reverse bool) *graph.Graph {
	a := graph.Attrs{"unset": graph.Value{}}
	for i := 0; i < n; i++ {
		j := i
		if reverse {
			j = n - 1 - i
		}
		a = a.SetNum(fmt.Sprintf("attr%02d", j), float64(j))
	}
	g := graph.NewUndirected()
	g.AddNode("v", a)
	return g
}

// TestRequestKeyAttrBagClasses checks the equal and not-equal classes of
// attribute bags on both sides of appendAttrs' stack-backed sort buffer:
// insertion order and Missing values never move the fingerprint, while
// changing any single attribute — first or last in sorted order — does.
func TestRequestKeyAttrBagClasses(t *testing.T) {
	for _, n := range []int{0, 1, attrSortStack - 1, attrSortStack, attrSortStack + 1, 3 * attrSortStack} {
		base, _ := requestKey(service.Request{Query: bagQuery(n, false)})
		if k, _ := requestKey(service.Request{Query: bagQuery(n, true)}); k != base {
			t.Fatalf("n=%d: insertion order moved the fingerprint", n)
		}
		plain := bagQuery(n, false)
		delete(plain.Node(0).Attrs, "unset")
		if k, _ := requestKey(service.Request{Query: plain}); k != base {
			t.Fatalf("n=%d: a Missing-valued attribute moved the fingerprint", n)
		}
		for _, i := range []int{0, n - 1} {
			if i < 0 {
				continue
			}
			q := bagQuery(n, false)
			q.Node(0).Attrs = q.Node(0).Attrs.SetNum(fmt.Sprintf("attr%02d", i), -1)
			if k, _ := requestKey(service.Request{Query: q}); k == base {
				t.Fatalf("n=%d: changing attr%02d did not move the fingerprint", n, i)
			}
		}
		q := bagQuery(n, false)
		q.Node(0).Attrs = q.Node(0).Attrs.SetNum("extra", 0)
		if k, _ := requestKey(service.Request{Query: q}); k == base {
			t.Fatalf("n=%d: an added attribute did not move the fingerprint", n)
		}
	}
}

// TestRequestKeyNoAllocs pins the point of the append encoding: once the
// buffer pool is warm, fingerprinting a request with small attribute
// bags allocates nothing.
func TestRequestKeyNoAllocs(t *testing.T) {
	req := service.Request{
		Query:          attrQuery(),
		EdgeConstraint: "rEdge.minDelay >= vEdge.minDelay",
		MaxResults:     3,
	}
	requestKey(req)
	if avg := testing.AllocsPerRun(100, func() { requestKey(req) }); avg != 0 {
		t.Fatalf("requestKey allocates %.1f/op, want 0", avg)
	}
}
