package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/index"
	"netembed/internal/service"
)

// getJSON issues a GET and returns the response plus its body.
func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// pathTestServer serves a line host h0-h1-h2-h3 with 10ms hops.
func pathTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	host := graph.NewUndirected()
	for _, name := range []string{"h0", "h1", "h2", "h3"} {
		host.AddNode(name, nil)
	}
	for i := 0; i < 3; i++ {
		host.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), graph.Attrs{}.
			SetNum("avgDelay", 10).SetNum("bandwidth", 100))
	}
	model := service.NewModel(host)
	model.EnableIndex(index.Config{})
	svc := service.New(model, service.Config{})
	ts := httptest.NewServer(New(svc))
	t.Cleanup(ts.Close)
	return ts
}

// pathQueryGraphML is a single query edge a-b demanding a 15..25ms
// composed delay — satisfiable only by 2-hop witnesses on the test host.
func pathQueryGraphML(t *testing.T) string {
	t.Helper()
	q := graph.NewUndirected()
	q.AddNode("a", nil)
	q.AddNode("b", nil)
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("minDelay", 15).SetNum("maxDelay", 25))
	ml, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	return ml
}

func TestEmbedPathMode(t *testing.T) {
	ts := pathTestServer(t)
	resp, body := postJSON(t, ts.URL+"/embed", EmbedRequest{
		QueryGraphML: pathQueryGraphML(t),
		Algorithm:    "path",
		MaxHops:      2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EmbedResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "complete" || len(out.Mappings) == 0 {
		t.Fatalf("status %s, %d mappings", out.Status, len(out.Mappings))
	}
	if len(out.Paths) != len(out.Mappings) {
		t.Fatalf("paths %d not parallel to mappings %d", len(out.Paths), len(out.Mappings))
	}
	for i, witnesses := range out.Paths {
		if len(witnesses) != 1 || len(witnesses[0].Path) != 3 || witnesses[0].Cost != 20 {
			t.Fatalf("solution %d witnesses = %+v", i, witnesses)
		}
		if witnesses[0].Path[0] != out.Mappings[i]["a"] || witnesses[0].Path[2] != out.Mappings[i]["b"] {
			t.Fatalf("solution %d witness %v does not join mapping %v", i, witnesses[0].Path, out.Mappings[i])
		}
	}
	if out.Stats.WitnessProbes <= 0 {
		t.Errorf("stats witnessProbes = %d, want > 0", out.Stats.WitnessProbes)
	}
}

func TestEmbedPathModeMetricsAndJobs(t *testing.T) {
	ts := pathTestServer(t)
	req := EmbedRequest{
		QueryGraphML: pathQueryGraphML(t),
		Algorithm:    "path",
		MaxHops:      2,
		Metrics: []MetricSpecJSON{
			{Attr: "avgDelay", Rule: "additive", LoAttr: "minDelay", HiAttr: "maxDelay"},
			{Attr: "bandwidth", Rule: "bottleneck", LoAttr: "minBandwidth", MissingFails: true},
		},
	}
	// Through the asynchronous job lifecycle: submit, then poll.
	resp, body := postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var job JobStatus
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	var final JobStatus
	for i := 0; i < 200; i++ {
		getResp, getBody := getJSON(t, ts.URL+"/jobs/"+job.ID)
		if getResp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", getResp.StatusCode, getBody)
		}
		if err := json.Unmarshal(getBody, &final); err != nil {
			t.Fatal(err)
		}
		if final.State == "done" || final.State == "failed" || final.State == "canceled" {
			break
		}
	}
	if final.State != "done" || final.Result == nil {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if len(final.Result.Mappings) == 0 || len(final.Result.Paths) != len(final.Result.Mappings) {
		t.Fatalf("job result: %d mappings, %d paths", len(final.Result.Mappings), len(final.Result.Paths))
	}

	// The cumulative engine counters surface on /stats.
	statsResp, statsBody := getJSON(t, ts.URL+"/stats")
	if statsResp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", statsResp.StatusCode)
	}
	var stats map[string]any
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if probes, _ := stats["searchWitnessProbes"].(float64); probes <= 0 {
		t.Errorf("/stats searchWitnessProbes = %v, want > 0", stats["searchWitnessProbes"])
	}
}

func TestEmbedPathModeBadRequests(t *testing.T) {
	ts := pathTestServer(t)
	for name, req := range map[string]EmbedRequest{
		"negative maxHops": {
			QueryGraphML: pathQueryGraphML(t),
			Algorithm:    "path",
			MaxHops:      -2,
		},
		"unknown metric rule": {
			QueryGraphML: pathQueryGraphML(t),
			Algorithm:    "path",
			Metrics:      []MetricSpecJSON{{Attr: "avgDelay", Rule: "geometric"}},
		},
		"metric without attr": {
			QueryGraphML: pathQueryGraphML(t),
			Algorithm:    "path",
			Metrics:      []MetricSpecJSON{{Rule: "additive"}},
		},
	} {
		resp, body := postJSON(t, ts.URL+"/embed", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

// TestEmbedPathModeCacheFingerprint pins that path tuning reaches the
// result cache: the same query at different hop bounds must not share an
// answer.
func TestEmbedPathModeCacheFingerprint(t *testing.T) {
	ts := pathTestServer(t)
	run := func(maxHops int) (EmbedResponse, bool) {
		resp, body := postJSON(t, ts.URL+"/embed", EmbedRequest{
			QueryGraphML: pathQueryGraphML(t),
			Algorithm:    "path",
			MaxHops:      maxHops,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out EmbedResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out, out.Cached
	}
	withTwo, _ := run(2)
	if len(withTwo.Mappings) == 0 {
		t.Fatal("2-hop run found nothing")
	}
	withOne, cached := run(1)
	if cached {
		t.Fatal("different maxHops served from the cache")
	}
	if len(withOne.Mappings) != 0 {
		t.Fatalf("1-hop run found %d mappings, want none (no single hop satisfies the window)", len(withOne.Mappings))
	}
	// Identical resubmission is a cache hit.
	again, cached := run(2)
	if !cached || len(again.Mappings) != len(withTwo.Mappings) {
		t.Fatalf("identical path request not served from cache (cached=%v)", cached)
	}
	if !strings.HasPrefix(again.Status, "complete") {
		t.Fatalf("cached status %s", again.Status)
	}
}
