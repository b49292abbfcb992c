package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netembed/internal/engine"
	"netembed/internal/graph"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// pricedClique returns K_n with a "price" attribute on every host node.
func pricedClique(n int, price func(i int) float64) *graph.Graph {
	g := topo.Clique(n)
	for i := 0; i < n; i++ {
		nd := g.Node(graph.NodeID(i))
		nd.Attrs = nd.Attrs.SetNum("price", price(i))
	}
	return g
}

// TestEmbedObjectiveCost drives an optimizing query over the wire: the
// response carries exactly one mapping and its objectiveCost, and the
// cost is the true optimum (the two cheapest hosts of a clique).
func TestEmbedObjectiveCost(t *testing.T) {
	host := pricedClique(6, func(i int) float64 { return float64([]int{9, 4, 7, 2, 8, 6}[i]) })
	svc := service.New(service.NewModel(host), service.Config{})
	ts := httptest.NewServer(New(svc))
	t.Cleanup(ts.Close)

	body := EmbedRequest{
		QueryGraphML: mustGraphML(t, topo.Line(2)),
		Objective:    &ObjectiveJSON{Kind: "attr-cost", Attr: "price"},
	}
	resp, raw := postJSON(t, ts.URL+"/embed", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /embed: %d %s", resp.StatusCode, raw)
	}
	var er EmbedResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Mappings) != 1 {
		t.Fatalf("optimize returned %d mappings, want exactly 1: %s", len(er.Mappings), raw)
	}
	if er.ObjectiveCost == nil {
		t.Fatalf("optimize response missing objectiveCost: %s", raw)
	}
	if want := 2.0 + 4.0; *er.ObjectiveCost != want {
		t.Fatalf("objectiveCost = %v, want %v (two cheapest hosts)", *er.ObjectiveCost, want)
	}
	if er.Stats.IncumbentUpdates == 0 {
		t.Fatalf("optimize run reports zero incumbent updates: %s", raw)
	}

	// The non-optimizing twin must not share a cache line with the
	// optimizing request (objective is part of the fingerprint).
	plain := EmbedRequest{QueryGraphML: body.QueryGraphML}
	if _, raw := postJSON(t, ts.URL+"/embed", plain); func() bool {
		var r EmbedResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		return r.ObjectiveCost != nil
	}() {
		t.Fatal("plain embed leaked an objectiveCost")
	}
}

// TestEmbedObjectiveBadKind pins the validation edge: an unknown
// objective kind answers 400, not a silent plain search.
func TestEmbedObjectiveBadKind(t *testing.T) {
	ts, _ := newTestServer(t)
	body := EmbedRequest{
		QueryGraphML: mustGraphML(t, topo.Line(2)),
		Objective:    &ObjectiveJSON{Kind: "warp"},
	}
	resp, raw := postJSON(t, ts.URL+"/embed", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown objective kind: %d %s, want 400", resp.StatusCode, raw)
	}
}

// TestEmbedObjectiveMissingAttr pins the other validation edge: attr-cost
// has no default attribute, so omitting it answers 400 instead of
// silently optimizing the constant-zero objective.
func TestEmbedObjectiveMissingAttr(t *testing.T) {
	ts, _ := newTestServer(t)
	body := EmbedRequest{
		QueryGraphML: mustGraphML(t, topo.Line(2)),
		Objective:    &ObjectiveJSON{Kind: "attr-cost"},
	}
	resp, raw := postJSON(t, ts.URL+"/embed", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("attr-cost without attr: %d %s, want 400", resp.StatusCode, raw)
	}
}

// TestJobAnytimeBestSoFar is the acceptance-criterion test: polling a
// running optimizing job returns the feasible best-so-far mapping with
// its cost. The fixture makes the first incumbent both immediate and
// optimal (ascending prices, so the lexicographically first solution is
// the cheapest) while the proof of optimality takes essentially forever
// on a K_40 host — the job stays running, serving its incumbent, until
// the test cancels it.
func TestJobAnytimeBestSoFar(t *testing.T) {
	host := pricedClique(40, func(i int) float64 { return float64(i + 1) })
	svc := service.New(service.NewModel(host), service.Config{})
	srv := NewWithEngine(svc, engine.New(svc, engine.Config{Workers: 1}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	body := EmbedRequest{
		QueryGraphML: mustGraphML(t, topo.Clique(12)),
		TimeoutMs:    60_000,
		Objective:    &ObjectiveJSON{Kind: "attr-cost", Attr: "price"},
	}
	resp, raw := postJSON(t, ts.URL+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, raw)
	}
	id := decodeJob(t, raw).ID

	js := pollJob(t, ts, id, 10*time.Second, func(j JobStatus) bool {
		return j.State == "running" && j.BestSoFar != nil
	})
	if js.Result != nil {
		t.Fatalf("running job carries a final result: %+v", js)
	}
	if len(js.BestSoFar) != 12 {
		t.Fatalf("bestSoFar maps %d nodes, want 12: %+v", len(js.BestSoFar), js)
	}
	seen := make(map[string]bool)
	for q, r := range js.BestSoFar {
		if q == "" || r == "" || seen[r] {
			t.Fatalf("bestSoFar is not an injective mapping: %+v", js.BestSoFar)
		}
		seen[r] = true
	}
	if js.BestCost == nil {
		t.Fatalf("bestSoFar without bestCost: %+v", js)
	}
	// Ascending prices make hosts 1..12 the optimum: 1+2+...+12.
	if want := 78.0; *js.BestCost != want {
		t.Fatalf("bestCost = %v, want %v", *js.BestCost, want)
	}

	if resp, _ := doRequest(t, http.MethodDelete, ts.URL+"/jobs/"+id); resp.StatusCode != http.StatusOK {
		t.Fatalf("cleanup DELETE: %d", resp.StatusCode)
	}
}
