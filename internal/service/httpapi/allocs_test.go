package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"

	"netembed/internal/engine"
	"netembed/internal/graphml"
	"netembed/internal/index"
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// Steady-state allocation budgets for the serve path: each is the figure
// measured on this fixture plus slack for runtime noise (background
// engine goroutines allocate on their own schedule, and the race
// detector's sync.Pool drops add ~50 to a warm search). A warm /embed
// measures ~92 (pooled search state, query-decode LRU, pooled response
// buffers, allocation-free fingerprint, typed wire stats); a cached
// /jobs submit plus poll ~183; a cached /embed ~35 (memoized reply
// bytes). The budgets catch a regression that reintroduces per-request
// GraphML decoding (~1800 allocs), per-search filter construction (~350),
// per-request fingerprint allocation (~200) or cache-hit re-encoding.
const (
	warmEmbedAllocBudget    = 200
	cachedSubmitAllocBudget = 250
	cachedEmbedAllocBudget  = 60
)

func newAllocServer(t *testing.T, cacheCap int) (*Server, []byte) {
	t.Helper()
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 30}, rand.New(rand.NewSource(1)))
	q, _, err := topo.Subgraph(host, 6, 8, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	queryXML, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]interface{}{"query": queryXML, "maxResults": 1})
	if err != nil {
		t.Fatal(err)
	}
	model := service.NewModel(host)
	model.EnableIndex(index.Config{})
	svc := service.New(model, service.Config{})
	eng := engine.New(svc, engine.Config{Workers: 1, QueueDepth: 64, CacheCapacity: cacheCap})
	t.Cleanup(func() { eng.Close(context.Background()) })
	return NewWithEngine(svc, eng), body
}

// TestWarmEmbedAllocBudget pins the steady-state allocation count of a
// warm POST /embed that runs a real search every time (result cache
// disabled): pooled searcher + filters, cached query decode, pooled
// response buffer. Blowing the budget means one of those reuse layers
// regressed.
func TestWarmEmbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	api, body := newAllocServer(t, -1)
	avg := measureEmbedAllocs(t, api, body)
	t.Logf("warm /embed: %.1f allocs/op (budget %d)", avg, warmEmbedAllocBudget)
	if avg > warmEmbedAllocBudget {
		t.Errorf("warm /embed allocates %.1f/op, budget %d — a serve-path reuse layer regressed",
			avg, warmEmbedAllocBudget)
	}
}

// measureEmbedAllocs returns the steady-state allocations of one POST
// /embed round trip on api, after priming pools and caches.
func measureEmbedAllocs(t *testing.T, api *Server, body []byte) float64 {
	t.Helper()
	do := func() {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("POST", "/embed", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 5; i++ {
		do()
	}
	return testing.AllocsPerRun(50, do)
}

// TestCachedEmbedAllocBudget pins a result-cache hit on the synchronous
// /embed — fingerprint, cache lookup, memoized reply bytes — and that it
// is the cheapest /embed: it must allocate less than a warm search.
func TestCachedEmbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	cachedAPI, body := newAllocServer(t, 64)
	cached := measureEmbedAllocs(t, cachedAPI, body)
	warmAPI, _ := newAllocServer(t, -1)
	warm := measureEmbedAllocs(t, warmAPI, body)
	t.Logf("cached /embed: %.1f allocs/op (budget %d); warm /embed: %.1f", cached, cachedEmbedAllocBudget, warm)
	if cached > cachedEmbedAllocBudget {
		t.Errorf("cached /embed allocates %.1f/op, budget %d — the cache-hit serve path regressed",
			cached, cachedEmbedAllocBudget)
	}
	if cached >= warm {
		t.Errorf("cached /embed allocates %.1f/op, not less than a warm search's %.1f", cached, warm)
	}
}

// TestCachedJobSubmitAllocBudget pins the allocation count of submitting
// a job whose answer is served from the engine's model-versioned result
// cache and polling it to completion — the cheapest full round trip the
// API offers, and the one the load harness leans on hardest.
func TestCachedJobSubmitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	api, body := newAllocServer(t, 64)
	submit := func() string {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
		if rec.Code != 202 && rec.Code != 200 {
			t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	poll := func(id string) {
		// AllocsPerRun pins GOMAXPROCS to 1, so the loop must yield or the
		// engine worker goroutine never gets scheduled to finish the job.
		for i := 0; i < 10000; i++ {
			runtime.Gosched()
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id, nil))
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.State == "done" || st.State == "failed" {
				return
			}
		}
		t.Fatal("job never finished")
	}
	for i := 0; i < 5; i++ {
		poll(submit()) // fill the result cache, prime pools
	}
	avg := testing.AllocsPerRun(50, func() { poll(submit()) })
	t.Logf("cached job submit+poll: %.1f allocs/op (budget %d)", avg, cachedSubmitAllocBudget)
	if avg > cachedSubmitAllocBudget {
		t.Errorf("cached job submit+poll allocates %.1f/op, budget %d — the cached serve path regressed",
			avg, cachedSubmitAllocBudget)
	}
}
