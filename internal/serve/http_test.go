package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPRunAndStats(t *testing.T) {
	s := New(Options{Slots: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Cold run.
	resp, body := postJSON(t, srv, "/run", `{"id":"a","nx":64,"nr":24,"steps":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cold JobResult
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if !cold.OK || cold.Cached || cold.ID != "a" || cold.MomentumSHA256 == "" {
		t.Fatalf("cold result: %+v", cold)
	}

	// Duplicate must be a cache hit with the same checksum.
	_, body = postJSON(t, srv, "/run", `{"id":"b","nx":64,"nr":24,"steps":4}`)
	var hit JobResult
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.OK || !hit.Cached || hit.Key != cold.Key || hit.MomentumSHA256 != cold.MomentumSHA256 {
		t.Fatalf("hit result: %+v (cold %+v)", hit, cold)
	}

	// Batch: duplicates and one bad job, results in submission order.
	_, body = postJSON(t, srv, "/batch",
		`[{"id":"c","nx":64,"nr":24,"steps":4},{"id":"d","backend":"nonesuch","nx":64,"nr":24,"steps":4},{"id":"e","scenario":"channel","nx":64,"nr":16,"steps":3}]`)
	var batch []JobResult
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 || batch[0].ID != "c" || batch[1].ID != "d" || batch[2].ID != "e" {
		t.Fatalf("batch order: %+v", batch)
	}
	if !batch[0].Cached || !batch[0].OK {
		t.Fatalf("batch duplicate not served from cache: %+v", batch[0])
	}
	if batch[1].OK || batch[1].Error == "" {
		t.Fatalf("bad job not reported: %+v", batch[1])
	}
	if !batch[2].OK || batch[2].Scenario != "channel" {
		t.Fatalf("channel job: %+v", batch[2])
	}

	// Stats reflect the traffic.
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Completed != 2 || st.CacheHits != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// Queue depth, shed count, and the per-scenario traffic mix: three
	// jet jobs served (one cold, two cached), one channel job, nothing
	// queued or shed.
	if st.Queued != 0 || st.Running != 0 || st.Rejected != 0 {
		t.Fatalf("occupancy stats: %+v", st)
	}
	if st.PerScenario["jet"] != 3 || st.PerScenario["channel"] != 1 {
		t.Fatalf("per-scenario stats: %+v", st.PerScenario)
	}

	// Malformed JSON is a client error.
	resp, _ = postJSON(t, srv, "/run", `{"nx":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed job: status %d", resp.StatusCode)
	}

	// Liveness.
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestHTTPShedding(t *testing.T) {
	s := New(Options{Slots: 1})
	s.Close() // closed scheduler sheds everything with 503
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, body := postJSON(t, srv, "/run", `{"nx":64,"nr":24,"steps":4}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Error == "" {
		t.Fatalf("shed result: %+v", res)
	}
}

// TestHTTPRejectsUnknownFields: a job field the protocol does not
// define is a 400, on /run and /batch alike — never a run served and
// cached under a config other than the one asked for. That covers
// misspellings and the retired parallel-in-time fields.
func TestHTTPRejectsUnknownFields(t *testing.T) {
	s := New(Options{Slots: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, c := range []struct{ path, body string }{
		{"/run", `{"nx":64,"nr":24,"stepz":9}`},
		{"/run", `{"nx":64,"nr":24,"steps":4,"time_slices":4}`},
		{"/batch", `[{"nx":64,"nr":24,"steps":4},{"nx":64,"nr":24,"stepz":9}]`},
	} {
		resp, body := postJSON(t, srv, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400: %s", c.path, c.body, resp.StatusCode, body)
		}
	}
	if st := s.Stats(); st.CacheMisses != 0 {
		t.Errorf("a rejected job reached the solver: %+v", st)
	}
}

// TestSharedResultRace: wire replies encode from the shared cache line
// while Submit callers copy it and write into their copies. Under
// -race this proves the two never touch the same memory; every wire
// reply must carry the cold run's checksum.
func TestSharedResultRace(t *testing.T) {
	s := New(Options{Slots: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	const body = `{"nx":64,"nr":24,"steps":4}`
	_, raw := postJSON(t, srv, "/run", body)
	var cold JobResult
	if err := json.Unmarshal(raw, &cold); err != nil || !cold.OK {
		t.Fatalf("priming: %s (%v)", raw, err)
	}

	const each = 8
	var wg sync.WaitGroup
	for g := 0; g < each; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, err := srv.Client().Post(srv.URL+"/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var res JobResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Error(err)
				return
			}
			if !res.Cached || res.MomentumSHA256 != cold.MomentumSHA256 {
				t.Errorf("wire reply %+v, want the cold checksum %s", res, cold.MomentumSHA256)
			}
		}()
		go func() {
			defer wg.Done()
			rep, err := s.Submit(Job{Nx: 64, Nr: 24, Steps: 4}.Config())
			if err != nil {
				t.Error(err)
				return
			}
			for _, col := range rep.Result.Momentum {
				for j := range col {
					col[j] = -col[j]
				}
			}
		}()
	}
	wg.Wait()
}
