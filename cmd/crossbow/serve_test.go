package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crossbow"
)

// startTestServer stands up the full HTTP front end over a freshly trained
// tiny model — the request/response smoke CI runs.
func startTestServer(t *testing.T) (*httptest.Server, *crossbow.Predictor) {
	t.Helper()
	res, err := crossbow.Train(crossbow.Config{
		Model: crossbow.LeNet, MaxEpochs: 1, Seed: 3,
		TrainSamples: 64, TestSamples: 32, Batch: 8,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	p, err := crossbow.Serve(crossbow.ServeConfig{
		Model: crossbow.LeNet, Params: res.Params, Version: 11,
		Replicas: 2, MaxBatch: 4, MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	srv := httptest.NewServer(newMux(p))
	t.Cleanup(func() { srv.Close(); p.Close() })
	return srv, p
}

// TestPredictEndpoint POSTs one batch and asserts 200 plus a well-formed
// response — the serving smoke of the CI pipeline.
func TestPredictEndpoint(t *testing.T) {
	srv, p := startTestServer(t)

	instances := make([][]float32, 3)
	for i := range instances {
		inst := make([]float32, p.SampleVol())
		for j := range inst {
			inst[j] = float32((i+j)%5) * 0.25
		}
		instances[i] = inst
	}
	body, _ := json.Marshal(predictRequest{Instances: instances})
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var got predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if got.Model != "lenet" || got.Version != 11 {
		t.Fatalf("response header %q/%d, want lenet/11", got.Model, got.Version)
	}
	if len(got.Predictions) != len(instances) {
		t.Fatalf("%d predictions for %d instances", len(got.Predictions), len(instances))
	}
	for i, pr := range got.Predictions {
		if pr.Class < 0 || pr.Class >= 10 || pr.Confidence <= 0 || pr.Confidence > 1 {
			t.Fatalf("prediction %d implausible: %+v", i, pr)
		}
		if pr.Version != 11 {
			t.Fatalf("prediction %d computed under version %d, want 11", i, pr.Version)
		}
	}
}

// TestPredictEndpointRejectsBadInput pins the 4xx contract.
func TestPredictEndpointRejectsBadInput(t *testing.T) {
	srv, _ := startTestServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{"instances": []}`},
		{"wrong-size", `{"instances": [[1, 2, 3]]}`},
		{"malformed", `{"instances": [[1,`},
	} {
		resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatalf("%s: POST: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/predict"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/predict: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestPredictEndpointRejectsOversizedBody: a body over maxPredictBody is
// answered 413 before it is decoded, however well-formed it is.
func TestPredictEndpointRejectsOversizedBody(t *testing.T) {
	srv, _ := startTestServer(t)
	zeros := strings.Repeat("0,", maxPredictBody/2)
	body := `{"instances": [[` + zeros + `0]]}`
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: status %d, want 413", len(body), resp.StatusCode)
	}
}

// TestFollowModeEndToEnd stands up the HTTP front end over a follow-mode
// predictor (the crossbow serve -follow path): a ModelPublisher feeds it a
// model and then an update, and /v1/feed shows the delta arriving.
func TestFollowModeEndToEnd(t *testing.T) {
	res, err := crossbow.Train(crossbow.Config{
		Model: crossbow.LeNet, MaxEpochs: 1, Seed: 3,
		TrainSamples: 64, TestSamples: 32, Batch: 8,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	mp, err := crossbow.NewModelPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewModelPublisher: %v", err)
	}
	defer mp.Close()
	if err := mp.Publish(crossbow.Snapshot{
		Model: crossbow.LeNet, Round: 1, Iter: 1, Epoch: 1, Params: res.Params,
	}); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	p, err := crossbow.Serve(crossbow.ServeConfig{
		Follow: mp.Addr(), FollowTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Serve(follow): %v", err)
	}
	srv := httptest.NewServer(newMux(p))
	defer func() { srv.Close(); p.Close() }()

	inst := make([]float32, p.SampleVol())
	body, _ := json.Marshal(predictRequest{Instances: [][]float32{inst}})
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var got predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	resp.Body.Close()
	if got.Model != "lenet" || got.Version != 1 {
		t.Fatalf("follow-mode response header %q/%d, want lenet/1", got.Model, got.Version)
	}

	// Publish an update and watch the server hot-swap to it.
	next := append([]float32(nil), res.Params...)
	for i := 0; i < 100 && i < len(next); i++ {
		next[i] += 0.001
	}
	if err := mp.Publish(crossbow.Snapshot{
		Model: crossbow.LeNet, Round: 2, Iter: 2, Epoch: 1, Params: next,
	}); err != nil {
		t.Fatalf("Publish update: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Version() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("server stuck on version %d after update", p.Version())
		}
		time.Sleep(5 * time.Millisecond)
	}
	fresp, err := http.Get(srv.URL + "/v1/feed")
	if err != nil {
		t.Fatalf("GET feed: %v", err)
	}
	defer fresp.Body.Close()
	var fs crossbow.FeedStats
	if err := json.NewDecoder(fresp.Body).Decode(&fs); err != nil {
		t.Fatalf("decoding feed stats: %v", err)
	}
	if fs.FullSent != 1 || fs.DeltaSent != 1 {
		t.Fatalf("feed stats report %d fulls / %d deltas, want 1 / 1 (%+v)",
			fs.FullSent, fs.DeltaSent, fs)
	}
}

// TestStatsAndHealthEndpoints checks the sidecar endpoints.
func TestStatsAndHealthEndpoints(t *testing.T) {
	srv, p := startTestServer(t)

	if _, err := p.Predict(make([]float32, p.SampleVol())); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats crossbow.ServingStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if stats.Requests < 1 || stats.ModelVersion != 11 {
		t.Fatalf("implausible stats %+v", stats)
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", h.StatusCode)
	}
}
