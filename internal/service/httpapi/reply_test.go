package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// replyTestServer serves the 10ms-hop line host h0-h1-h2-h3 with a
// "price" on every node, so plain, optimizing and path queries all have
// answers. The Server is driven in process so tests can reach its memo.
func replyTestServer(t *testing.T) *Server {
	t.Helper()
	host := graph.NewUndirected()
	for i, name := range []string{"h0", "h1", "h2", "h3"} {
		host.AddNode(name, graph.Attrs{}.SetNum("price", float64(7-i)))
	}
	for i := 0; i < 3; i++ {
		host.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), graph.Attrs{}.
			SetNum("avgDelay", 10).SetNum("bandwidth", 100))
	}
	model := service.NewModel(host)
	model.EnableIndex(index.Config{})
	s := New(service.New(model, service.Config{}))
	t.Cleanup(func() { _ = s.Close(context.Background()) })
	return s
}

// serve runs one request through h and fails the test on a non-200.
func serve(t *testing.T, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var rd bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd.Reset(raw)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &rd))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec
}

func decodeEmbed(t *testing.T, rec *httptest.ResponseRecorder) EmbedResponse {
	t.Helper()
	var out EmbedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCachedReplyWireIdentity pins that a result-cache hit on /embed
// answers with bytes identical to a fresh encoding of the cached
// response (cached: true), for plain, optimizing and path answers, and
// that the answer itself equals the search's.
func TestCachedReplyWireIdentity(t *testing.T) {
	s := replyTestServer(t)
	line := mustGraphML(t, topo.Line(2))
	for name, body := range map[string]EmbedRequest{
		"embed":    {QueryGraphML: line},
		"optimize": {QueryGraphML: line, Objective: &ObjectiveJSON{Kind: "attr-cost", Attr: "price"}},
		"path":     {QueryGraphML: pathQueryGraphML(t), Algorithm: "path", MaxHops: 2},
	} {
		t.Run(name, func(t *testing.T) {
			before := len(s.replies.m)
			miss := serve(t, s, "POST", "/embed", body)
			firstHit := serve(t, s, "POST", "/embed", body)
			hit := serve(t, s, "POST", "/embed", body)
			if !bytes.Equal(firstHit.Body.Bytes(), hit.Body.Bytes()) {
				t.Fatalf("memoized reply differs from the first hit's:\n%s\nvs\n%s", firstHit.Body, hit.Body)
			}
			if n := len(s.replies.m); n != before+1 {
				t.Fatalf("memo holds %d entries after one cached answer, want %d", n, before+1)
			}

			var resp *service.Response
			for r, b := range s.replies.m {
				if bytes.Equal(b, hit.Body.Bytes()) {
					resp = r
				}
			}
			if resp == nil {
				t.Fatal("served reply is not a memo entry")
			}
			fresh := httptest.NewRecorder()
			out := embedResponseJSON(resp)
			out.Cached = true
			writeJSON(fresh, http.StatusOK, out)
			if !bytes.Equal(fresh.Body.Bytes(), hit.Body.Bytes()) {
				t.Fatalf("memoized reply is not a fresh encoding:\n%s\nvs\n%s", hit.Body, fresh.Body)
			}
			if got, want := hit.Header().Get("Content-Type"), fresh.Header().Get("Content-Type"); got != want {
				t.Fatalf("Content-Type %q, want %q", got, want)
			}

			searched, replayed := decodeEmbed(t, miss), decodeEmbed(t, hit)
			if searched.Cached || !replayed.Cached {
				t.Fatalf("cached flags: miss %v, hit %v", searched.Cached, replayed.Cached)
			}
			replayed.Cached = false
			if !reflect.DeepEqual(searched, replayed) {
				t.Fatalf("cached answer differs from the search's:\n%+v\nvs\n%+v", replayed, searched)
			}
			if len(searched.Mappings) == 0 ||
				(name == "optimize") != (searched.ObjectiveCost != nil) ||
				(name == "path") != (len(searched.Paths) > 0) {
				t.Fatalf("fixture answer lacks its %s shape: %s", name, miss.Body)
			}
		})
	}
}

// TestCachedReplyAfterDelta pins that a model publish never lets the
// memo serve a stale answer: the next hit carries the new modelVersion.
func TestCachedReplyAfterDelta(t *testing.T) {
	s := replyTestServer(t)
	body := EmbedRequest{QueryGraphML: mustGraphML(t, topo.Line(2))}
	serve(t, s, "POST", "/embed", body)
	if out := decodeEmbed(t, serve(t, s, "POST", "/embed", body)); !out.Cached || out.ModelVersion != 1 {
		t.Fatalf("before the delta: cached %v at version %d, want a hit at 1", out.Cached, out.ModelVersion)
	}
	serve(t, s, "POST", "/deltas", DeltaRequest{
		SetNodeAttrs: []DeltaNodeAttrs{{Node: "h0", Attrs: map[string]any{"price": 1.0}}},
	})
	if out := decodeEmbed(t, serve(t, s, "POST", "/embed", body)); out.Cached || out.ModelVersion != 2 {
		t.Fatalf("first read after the delta: cached %v at version %d, want a search at 2", out.Cached, out.ModelVersion)
	}
	if out := decodeEmbed(t, serve(t, s, "POST", "/embed", body)); !out.Cached || out.ModelVersion != 2 {
		t.Fatalf("second read after the delta: cached %v at version %d, want a hit at 2", out.Cached, out.ModelVersion)
	}
}

// TestReplyCacheBounded pins the memo's bound and its eviction order:
// entries answered at an older model version go first.
func TestReplyCacheBounded(t *testing.T) {
	c := newReplyCache(2)
	old := &service.Response{ModelVersion: 1}
	a, b := &service.Response{ModelVersion: 2}, &service.Response{ModelVersion: 2}
	c.put(old, []byte("old"))
	c.put(a, []byte("a"))
	c.put(b, []byte("b"))
	if _, ok := c.m[old]; ok || len(c.m) != 2 {
		t.Fatalf("memo after overflow holds %d entries (stale kept: %v), want a and b", len(c.m), ok)
	}
	c.put(&service.Response{ModelVersion: 2}, []byte("c"))
	if len(c.m) != 2 {
		t.Fatalf("memo grew to %d entries, bound 2", len(c.m))
	}
}

// TestEmbedLeavesNoJobRecords pins that synchronous /embed calls — cache
// hits and fresh searches alike — leave no job record to expire: none of
// their sequential IDs is pollable afterwards, while a /jobs submission
// still is.
func TestEmbedLeavesNoJobRecords(t *testing.T) {
	s := replyTestServer(t)
	line := mustGraphML(t, topo.Line(2))
	const n = 12
	for i := 0; i < n; i++ {
		serve(t, s, "POST", "/embed", EmbedRequest{QueryGraphML: line, MaxResults: 1 + i%3})
	}
	if st := s.eng.Stats(); st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("want both hits and misses, got %d hits, %d misses", st.CacheHits, st.CacheMisses)
	}
	for id := 1; id <= n; id++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/jobs/%d", id), nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET /jobs/%d after synchronous /embed: status %d, want 404", id, rec.Code)
		}
	}

	raw, _ := json.Marshal(EmbedRequest{QueryGraphML: line})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(raw)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	serve(t, s, "GET", "/jobs/"+st.ID, nil)
}

// TestEmbedStatsWireOrder pins that the typed stats object encodes to
// exactly the bytes of the map it replaced (encoding/json sorts map
// keys, so the struct declares its fields in that order).
func TestEmbedStatsWireOrder(t *testing.T) {
	st := core.Stats{
		NodesVisited: 1, Backtracks: 2, EdgePairsEval: 3, FilterEntries: 4,
		ConstraintChk: 5, PruneOps: 6, Wipeouts: 7, WipeoutDepthSum: 8,
		Backjumps: 9, Steals: 10, WitnessProbes: 11, WitnessHits: 12,
		ReachPrunes: 13, BoundCuts: 14, IncumbentUpdates: 15, BoundProbes: 16,
		TimeToFirst: 1500 * time.Microsecond,
	}
	asMap := map[string]interface{}{
		"nodesVisited":     st.NodesVisited,
		"backtracks":       st.Backtracks,
		"edgePairsEval":    st.EdgePairsEval,
		"filterEntries":    st.FilterEntries,
		"constraintChk":    st.ConstraintChk,
		"pruneOps":         st.PruneOps,
		"wipeouts":         st.Wipeouts,
		"wipeoutDepthSum":  st.WipeoutDepthSum,
		"backjumps":        st.Backjumps,
		"steals":           st.Steals,
		"witnessProbes":    st.WitnessProbes,
		"witnessHits":      st.WitnessHits,
		"reachPrunes":      st.ReachPrunes,
		"boundCuts":        st.BoundCuts,
		"incumbentUpdates": st.IncumbentUpdates,
		"boundProbes":      st.BoundProbes,
		"timeToFirstMs":    float64(st.TimeToFirst) / float64(time.Millisecond),
	}
	var want, got bytes.Buffer
	if err := encodeJSON(&want, asMap); err != nil {
		t.Fatal(err)
	}
	if err := encodeJSON(&got, embedResponseJSON(&service.Response{Stats: st}).Stats); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("typed stats encode as\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
	back := statsFromJSON(embedResponseJSON(&service.Response{Stats: st}).Stats)
	back.FilterEntries = st.FilterEntries // not carried back from peers
	if back != st {
		t.Fatalf("stats round trip: %+v, want %+v", back, st)
	}
}
