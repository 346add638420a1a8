package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding response: %v", url, err)
	}
	return resp, out
}

func TestScoreEndpoint(t *testing.T) {
	ts, _, _ := deploy(t)

	// Feature width comes from the deployed artifact, as a client would
	// learn it from /api/health.
	health := getJSON(t, ts.URL+"/api/health", http.StatusOK)
	features := int(health["features"].(float64))
	if features == 0 {
		t.Fatal("health reports 0 features")
	}

	zeros := strings.TrimSuffix(strings.Repeat("0,", features), ",")
	body := fmt.Sprintf(`{"vectors":[[%s],[%s]]}`, zeros, zeros)
	resp, out := postJSON(t, ts.URL+"/api/score", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d: %v", resp.StatusCode, out)
	}
	results, ok := out["results"].([]interface{})
	if !ok || len(results) != 2 {
		t.Fatalf("want 2 results, got %v", out["results"])
	}
	if _, ok := out["threshold"].(float64); !ok {
		t.Fatalf("threshold missing: %v", out)
	}
	for i, r := range results {
		entry := r.(map[string]interface{})
		if _, ok := entry["score"].(float64); !ok {
			t.Fatalf("result %d has no score: %v", i, entry)
		}
		if _, ok := entry["anomalous"].(bool); !ok {
			t.Fatalf("result %d has no verdict: %v", i, entry)
		}
	}

	// Error paths: wrong method, malformed JSON, ragged batch, wrong width.
	getResp, err := http.Get(ts.URL + "/api/score")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/score: status %d, want 405", getResp.StatusCode)
	}
	for _, bad := range []string{
		`{"vectors":`,
		`{"vectors":[]}`,
		`{"vectors":[[1],[1,2]]}`,
		`{"vectors":[[1,2,3]]}`, // wrong width (unless the model has 3 features)
	} {
		resp, _ := postJSON(t, ts.URL+"/api/score", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestScoreShedReturns429 pins the degradation contract of the serving
// tier at the HTTP layer: a shed scoring request answers 429 with a
// Retry-After hint, not a generic 500. A stopped tier sheds everything,
// which makes the shed path deterministic to exercise.
func TestScoreShedReturns429(t *testing.T) {
	srv, _, _ := deployServer(t)
	srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	width := len(srv.Prodigy.FeatureNames())
	zeros := strings.TrimSuffix(strings.Repeat("0,", width), ",")
	resp, out := postJSON(t, ts.URL+"/api/score", fmt.Sprintf(`{"vectors":[[%s]]}`, zeros))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed score status %d, want 429 (%v)", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response carries no Retry-After header")
	}

	// Non-scoring endpoints keep working after Close.
	health := getJSON(t, ts.URL+"/api/health", http.StatusOK)
	if health["trained"] != true {
		t.Fatalf("health degraded after Close: %v", health)
	}
	sv, ok := health["serve"].(map[string]interface{})
	if !ok {
		t.Fatalf("health carries no serve section: %v", health)
	}
	if sv["converged"] != true {
		t.Fatalf("single-replica tier not converged: %v", sv)
	}
}

// TestScoreRejectsMalformedBodies pins the two bodies encoding/json used to
// let through to the model: a null feature value (silently scored as 0)
// and a stray closing bracket after the request object. Both must answer
// 400, the null naming the vector and feature it sits at.
func TestScoreRejectsMalformedBodies(t *testing.T) {
	srv, _, _ := deployServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	width := len(srv.Prodigy.FeatureNames())
	features := strings.Split(strings.TrimSuffix(strings.Repeat("0,", width), ","), ",")
	row := strings.Join(features, ",")
	features[width-1] = "null"
	for _, tc := range []struct{ body, wantErr string }{
		{fmt.Sprintf(`{"vectors":[[%s],[%s]]}`, row, strings.Join(features, ",")),
			fmt.Sprintf("vector 1, feature %d", width-1)},
		{fmt.Sprintf(`{"vectors":[[%s]]}}`, row), "trailing data"},
		{fmt.Sprintf(`{"vectors":[[%s]]}]`, row), "trailing data"},
	} {
		resp, out := postJSON(t, ts.URL+"/api/score", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %.40q…: status %d, want 400 (%v)", tc.body, resp.StatusCode, out)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, tc.wantErr) {
			t.Fatalf("POST %.40q…: error %q, want it to name %q", tc.body, msg, tc.wantErr)
		}
	}
}
