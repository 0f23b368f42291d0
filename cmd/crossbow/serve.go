package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"crossbow"
)

// serveCmd exposes a trained Crossbow model over HTTP/JSON: a thin front
// end on crossbow.Serve's dynamically-batched prediction runtime
// (DESIGN.md §11).
//
//	crossbow serve -ckpt model.ckpt -addr :8080 -replicas 2 -max-batch 16
//	crossbow serve -ckpt model.ckpt -slo 5ms -autoscale 4       # fleet mode
//	crossbow serve -follow 10.0.0.1:9090 -slo 5ms               # live feed
//	crossbow serve -model resnet32 -train-epochs 2 -addr :8080   # demo mode
//
// Endpoints:
//
//	POST /v1/predict  {"instances": [[...f32...], ...]}
//	                  → {"model": "...", "version": N,
//	                     "predictions": [{"class": C, "confidence": P,
//	                                      "version": V}, ...]}
//	GET  /v1/stats    → metrics.ServingStats JSON
//	GET  /v1/feed     → metrics.FeedStats JSON (all-zero unless -follow)
//	GET  /healthz     → 200 "ok"
//
// With -ckpt the process serves the exact published model the checkpoint
// carries (its snapshot round is the reported version). With -follow it
// subscribes to a training run's model feed (crossbow train -publish) and
// hot-swaps every published snapshot in as it arrives — combined with -ckpt
// the checkpoint is the feed's warm base, so a restarted replica resumes
// with deltas instead of a full snapshot. -slo enables SLO-driven adaptive
// batching and -autoscale replica autoscaling (DESIGN.md §16). Demo mode
// (neither -ckpt nor -follow) trains -model first, so the server can be
// tried without a checkpoint.
func serveCmd(fs *flag.FlagSet) runner {
	var model string
	modelFlag(fs, &model, "lenet")
	ckptPath := fs.String("ckpt", "", "checkpoint to serve (SaveModel/SaveSnapshot output)")
	trainEpochs := fs.Int("train-epochs", 1, "demo mode: training epochs before serving")
	addr := fs.String("addr", ":8080", "HTTP listen address")
	replicas := fs.Int("replicas", 1, "forward-only model replicas")
	maxBatch := fs.Int("max-batch", 8, "dynamic micro-batch ceiling")
	maxDelay := fs.Duration("max-delay", 2*time.Millisecond, "cap on a non-full batch's straggler wait; it holds only while requests keep arriving within one measured batch service time (0: never wait)")
	queueDepth := fs.Int("queue-depth", 0, "request queue bound (0: replicas*max-batch*4)")
	shedOnFull := fs.Bool("shed-on-full", false, "shed (fast 503) instead of blocking when the queue is full")
	admitDeadline := fs.Duration("admit-deadline", 0, "shed requests that cannot be answered within this budget (0: no deadline)")
	follow := fs.String("follow", "", "subscribe to a model feed (crossbow train -publish address); with -ckpt the checkpoint is the feed's warm base")
	followTimeout := fs.Duration("follow-timeout", 0, "cold-start wait for the feed's first snapshot (0: 30s)")
	slo := fs.Duration("slo", 0, "p99 latency target enabling SLO-driven adaptive batching (-max-batch becomes the ceiling, -max-delay is ignored)")
	autoscale := fs.Int("autoscale", 0, "with -slo: replica pool ceiling; -replicas becomes the floor (0: fixed pool)")

	return func(stdout, stderr io.Writer) int {
		cfg := crossbow.ServeConfig{
			Replicas:      *replicas,
			MaxBatch:      *maxBatch,
			MaxDelay:      *maxDelay,
			QueueDepth:    *queueDepth,
			ShedOnFull:    *shedOnFull,
			AdmitDeadline: *admitDeadline,

			SLO:           *slo,
			AutoScale:     *autoscale,
			Follow:        *follow,
			FollowTimeout: *followTimeout,
		}
		switch {
		case *ckptPath != "":
			cfg.Checkpoint = *ckptPath
		case *follow != "":
			// Follow mode: the feed's first snapshot provides the model, no
			// local training needed.
			log.Printf("following model feed at %s", *follow)
		default:
			// Demo mode: train a small model so the server is self-contained.
			log.Printf("no -ckpt: training %s for %d epoch(s) first", model, *trainEpochs)
			res, err := crossbow.Train(crossbow.Config{
				Model: crossbow.Model(model), MaxEpochs: *trainEpochs,
			})
			if err != nil {
				fmt.Fprintf(stderr, "train: %v\n", err)
				return 1
			}
			cfg.Model, cfg.Params = crossbow.Model(model), res.Params
		}

		p, err := crossbow.Serve(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "serve: %v\n", err)
			return 1
		}
		defer p.Close()

		if *slo > 0 {
			pool := fmt.Sprintf("%d replicas", *replicas)
			if *autoscale > 0 {
				pool = fmt.Sprintf("%d–%d replicas (autoscaled)", *replicas, *autoscale)
			}
			log.Printf("serving %s (version %d, %s, adaptive batching ≤%d under %v p99 SLO) on %s",
				p.Model(), p.Version(), pool, *maxBatch, *slo, *addr)
		} else {
			log.Printf("serving %s (version %d, %d replicas, max batch %d, max delay %v) on %s",
				p.Model(), p.Version(), *replicas, *maxBatch, *maxDelay, *addr)
		}
		if err := http.ListenAndServe(*addr, newMux(p)); err != nil {
			fmt.Fprintf(stderr, "http: %v\n", err)
			return 1
		}
		return 0
	}
}

// maxPredictBody bounds a /v1/predict body; a larger one is answered 413
// without being decoded. A JSON float takes at most ~16 bytes and a sample
// of the largest scaled model 3×8×8 floats (≈ 3 KiB of JSON), so 4 MiB
// carries over a thousand instances, while one request can no longer make
// the server decode and hold whatever it is sent.
const maxPredictBody = 4 << 20

// predictRequest is the POST /v1/predict payload.
type predictRequest struct {
	// Instances are flat [C×H×W] samples (Predictor.SampleVol elements
	// each).
	Instances [][]float32 `json:"instances"`
}

// predictResponse is its reply. Version is the model version the service
// is currently on; each prediction additionally carries the version that
// actually computed it, which can trail during a hot swap mid-payload.
type predictResponse struct {
	Model       string       `json:"model"`
	Version     int64        `json:"version"`
	Predictions []prediction `json:"predictions"`
}

type prediction struct {
	Class      int     `json:"class"`
	Confidence float32 `json:"confidence"`
	Version    int64   `json:"version"`
}

// newMux builds the HTTP front end over a predictor. Split from serveCmd
// so the request/response contract is testable without a listener.
func newMux(p *crossbow.Predictor) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p.Stats())
	})
	mux.HandleFunc("/v1/feed", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p.FeedStats())
	})
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var req predictRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPredictBody)).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, fmt.Sprintf("body over %d bytes", maxPredictBody), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		if len(req.Instances) == 0 {
			http.Error(w, "no instances", http.StatusBadRequest)
			return
		}
		vol := p.SampleVol()
		for i, inst := range req.Instances {
			if len(inst) != vol {
				http.Error(w, fmt.Sprintf("instance %d has %d values, want %d", i, len(inst), vol),
					http.StatusBadRequest)
				return
			}
		}
		// Submit concurrently so the engine can coalesce the payload into
		// as few micro-batches as possible — through a bounded worker pool,
		// so a huge payload costs queue time, not goroutines.
		resp := predictResponse{Model: string(p.Model())}
		resp.Predictions = make([]prediction, len(req.Instances))
		errs := make([]error, len(req.Instances))
		workers := len(req.Instances)
		if workers > 64 {
			workers = 64
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					pr, err := p.Predict(req.Instances[i])
					if err != nil {
						errs[i] = err
						continue
					}
					resp.Predictions[i] = prediction{
						Class: pr.Class, Confidence: pr.Confidence, Version: pr.Version,
					}
				}
			}()
		}
		for i := range req.Instances {
			idx <- i
		}
		close(idx)
		wg.Wait()
		resp.Version = p.Version()
		for _, err := range errs {
			if err != nil {
				if errors.Is(err, crossbow.ErrOverloaded) {
					// The shed path: the engine refused cheaply, so the 503
					// goes out fast instead of after a queue-drain wait.
					w.Header().Set("Retry-After", "1")
				}
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	return mux
}
