package main

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"crossbow"
	"crossbow/internal/transport"
)

// Failure-detector settings of every in-process rank, traced or not: quick
// dialing and a short warm-start probe (a cold bootstrap has no snapshot to
// find, so the probe is pure waiting), but a generous peer timeout — compute
// on a two-core box can starve heartbeat goroutines, and a spurious death
// would shrink the view and change what is measured.
const (
	bootstrapWait  = 10 * time.Second
	warmStartWait  = 100 * time.Millisecond
	heartbeatEvery = 10 * time.Millisecond
	peerTimeout    = 10 * time.Second
	dialBackoff    = 5 * time.Millisecond
)

func nodeConfig(rank int, addrs []string, ln net.Listener, overlap bool) crossbow.NodeConfig {
	return crossbow.NodeConfig{
		Rank: rank, Peers: addrs, Listener: ln,
		BootstrapWait: bootstrapWait, WarmStartWait: warmStartWait,
		HeartbeatEvery: heartbeatEvery, PeerTimeout: peerTimeout, DialBackoff: dialBackoff,
		OverlapGlobal: overlap,
	}
}

// transportConfig is the same rank as the traced run hands it to the
// transport directly.
func transportConfig(rank int, addrs []string, ln net.Listener) transport.Config {
	return transport.Config{
		Rank: rank, Peers: addrs, Listener: ln,
		HeartbeatEvery: heartbeatEvery, PeerTimeout: peerTimeout, DialBackoff: dialBackoff,
	}
}

// clusterRun is one phase of the cluster workload: every rank's result, the
// wall of the slowest Train call, and what the transport logged.
type clusterRun struct {
	results   []*crossbow.Result
	wall      float64
	events    eventLog
	discarded []string // attempts whose cluster did not hold together, described
}

// eventLog collects the transport's debug lines (peers up and down, aborted
// rounds — a handful per run) with the time since the cluster was started.
type eventLog struct {
	mu    sync.Mutex
	t0    time.Time
	lines []string
}

func (l *eventLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lines) < 100 {
		l.lines = append(l.lines, fmt.Sprintf("%.1fms ", time.Since(l.t0).Seconds()*1e3)+fmt.Sprintf(format, args...))
	}
}

// churn describes what the transport saw if any rank aborted or restarted a
// global round, and is empty otherwise.
func (run *clusterRun) churn() string {
	bad := int64(0)
	var parts []string
	for rank, res := range run.results {
		t := res.TransportStats
		bad += t.Aborts + t.RestartRounds
		parts = append(parts, fmt.Sprintf("rank %d: %d aborts, %d restart rounds, %d reconnects, %d peer deaths, %d watchdog fires, view epoch %d",
			rank, t.Aborts, t.RestartRounds, t.Reconnects, t.PeerDeaths, t.WatchdogFires, t.Epoch))
	}
	if bad == 0 {
		return ""
	}
	return fmt.Sprintf("%s; ranks agree: %v; transport log: %s", strings.Join(parts, "; "), ranksAgree(run.results), strings.Join(run.events.lines, " | "))
}

// trainCluster runs s.ranks in-process ranks over loopback TCP through the
// public API and waits for all of them. A non-nil clock stamps the snapshots
// rank 0 publishes (one per global round). The workload is a cluster that
// holds together: about one formation in 500 on the reference box aborts a
// round in the middle of a run for a reason not yet found (README.md,
// finding 7), after which its numbers are a different workload's — such an
// attempt is described in the result and the cluster is formed again, once.
func trainCluster(s trainSpec, seed uint64, epochs, trainSamples int, overlap bool, clock *unitClock) (*clusterRun, error) {
	var discarded []string
	for attempt := 1; ; attempt++ {
		run, err := formCluster(s, seed, epochs, trainSamples, overlap, clock)
		if err != nil {
			return nil, err
		}
		churn := run.churn()
		if churn == "" || attempt == 2 {
			run.discarded = discarded
			return run, nil
		}
		discarded = append(discarded, churn)
		if clock != nil {
			clock.reset()
		}
	}
}

func formCluster(s trainSpec, seed uint64, epochs, trainSamples int, overlap bool, clock *unitClock) (*clusterRun, error) {
	addrs, lns, err := listeners(s.ranks)
	if err != nil {
		return nil, err
	}
	run := &clusterRun{results: make([]*crossbow.Result, s.ranks)}
	run.events.t0 = time.Now()
	errs := make([]error, s.ranks)
	walls := make([]float64, s.ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < s.ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := s.config(seed, epochs)
			cfg.TrainSamples = trainSamples
			cfg.Servers = s.ranks
			cfg.TauGlobal = 1
			cfg.Transport = crossbow.TransportTCP
			cfg.Node = nodeConfig(rank, addrs, lns[rank], overlap)
			cfg.Node.Logf = run.events.logf
			if rank == 0 && clock != nil {
				cfg.OnSnapshot = clock.onSnapshot
			}
			t0 := time.Now()
			run.results[rank], errs[rank] = crossbow.Train(cfg)
			walls[rank] = time.Since(t0).Seconds()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	for _, w := range walls {
		run.wall = max(run.wall, w)
	}
	return run, nil
}

// ranksAgree checks the replication invariant: every rank holds the same
// bytes.
func ranksAgree(results []*crossbow.Result) bool {
	for _, res := range results[1:] {
		if crcOf(res.Params) != crcOf(results[0].Params) || len(res.Params) != len(results[0].Params) {
			return false
		}
	}
	return true
}

// clusterEpochSecs is the per-epoch wall of the cluster: ranks run in
// lockstep with each other (a global round per iteration), so an epoch ends
// when its slowest rank does.
func clusterEpochSecs(results []*crossbow.Result) []float64 {
	out := epochSecs(results[0].Wall)
	for _, res := range results[1:] {
		for i, p := range res.Wall {
			if i < len(out) {
				out[i] = max(out[i], p.Sec)
			}
		}
	}
	return out
}

// runCluster is the untraced run of the cluster workload: a synchronous
// phase, then the same training with the global exchange overlapped.
func runCluster(s trainSpec, seed uint64, seconds int, r *report) error {
	full := seconds >= fullLength

	var setups []float64
	var crcs []uint32
	var discarded []string // attempts trainCluster formed again
	for i := 0; i < setupReps(seconds); i++ {
		run, err := trainCluster(s, seed, 1, s.learners*s.batch, false, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, run.wall)
		discarded = append(discarded, run.discarded...)
		crcs = append(crcs, crcOf(run.results[0].Params))
		r.check(ranksAgree(run.results), "set-up run %d: ranks disagree on the final parameters", i)
	}
	r.set("setup_s", quietTime(setups), len(setups))
	r.notef("set-up walls %.3f s", setups)
	same := true
	for _, c := range crcs[1:] {
		same = same && c == crcs[0]
	}
	r.check(same, "set-up runs disagree on the final parameters: CRCs %08x", crcs)

	epochs := s.epochs(seconds)
	var syncClock, overClock unitClock
	syncRun, err := trainCluster(s, seed, epochs, s.trainSamples, false, &syncClock)
	if err != nil {
		return fmt.Errorf("sync phase: %w", err)
	}
	overRun, err := trainCluster(s, seed, epochs, s.trainSamples, true, &overClock)
	if err != nil {
		return fmt.Errorf("overlap phase: %w", err)
	}

	// Speed at the quiet edge of the synchronous phase's units (stats.go,
	// quietShare), and both phases' Train calls with their epochs taken at
	// their phase's quiet edge: what is not an epoch (evaluation, mesh
	// bootstrap, teardown) stays as measured.
	secs, overSecs := clusterEpochSecs(syncRun.results), clusterEpochSecs(overRun.results)
	perRound, units := s.quietUnit(syncClock.unitSecs(s.unitIters), secs)
	overPerRound, _ := s.quietUnit(overClock.unitSecs(s.unitIters), overSecs)
	quiet, overQuiet := perRound*float64(s.itersPerEpoch()), overPerRound*float64(s.itersPerEpoch())
	r.set("cluster_images_per_s", float64(s.ranks*s.trainSamples)/quiet, len(units))
	r.set("cluster_round_ms", perRound*1e3, len(units))
	r.set("cluster_wall_s", syncRun.wall-sum(secs)+overRun.wall-sum(overSecs)+float64(epochs)*(quiet+overQuiet), 2)

	var exposed, overlapExposed []float64
	rounds, bad := 0, 0
	for rank := range syncRun.results {
		st, ot := syncRun.results[rank].TransportStats, overRun.results[rank].TransportStats
		exposed = append(exposed, float64(st.RoundMean)/1e6)
		if ot.AsyncRounds > 0 {
			overlapExposed = append(overlapExposed, float64(ot.OverlapBlockedNs)/float64(ot.AsyncRounds)/1e6)
		}
		rounds += int(st.Rounds + ot.Rounds)
		bad += int(st.Aborts + st.RestartRounds + ot.Aborts + ot.RestartRounds)
		r.check(ot.AsyncRounds == ot.Rounds, "rank %d: overlap phase ran %d of %d rounds asynchronously", rank, ot.AsyncRounds, ot.Rounds)
	}
	r.opsf(rounds, bad, "%d of %d global rounds aborted or restarted, again after the cluster was formed a second time; sync: %s; overlap: %s", bad, rounds, syncRun.churn(), overRun.churn())
	for _, d := range append(append(discarded, syncRun.discarded...), overRun.discarded...) {
		r.notef("A CLUSTER DID NOT HOLD TOGETHER and was formed again; the discarded attempt: %s", d)
	}
	r.set("cluster_exposed_ms", mean(exposed), int(syncRun.results[0].TransportStats.Rounds))
	r.set("cluster_overlap_exposed_ms", mean(overlapExposed), int(overRun.results[0].TransportStats.AsyncRounds))
	st0 := syncRun.results[0].TransportStats
	r.set("cluster_wire_bytes_per_round", float64(st0.BytesSent)/float64(max(1, st0.Rounds)), int(st0.Rounds))

	acc := min(syncRun.results[0].BestAccuracy, overRun.results[0].BestAccuracy)
	r.set("test_acc_final", acc, 2*epochs)
	r.check(ranksAgree(syncRun.results), "sync phase: ranks disagree on the final parameters")
	r.check(ranksAgree(overRun.results), "overlap phase: ranks disagree on the final parameters")
	r.check(crcOf(syncRun.results[0].Params) == crcOf(overRun.results[0].Params),
		"overlapped exchange changed the trajectory: crc %08x vs %08x", crcOf(syncRun.results[0].Params), crcOf(overRun.results[0].Params))
	for rank := range syncRun.results {
		r.check(lossesFinite(syncRun.results[rank].Series) && lossesFinite(overRun.results[rank].Series), "rank %d: a training loss is not finite", rank)
	}
	if full {
		r.check(acc >= s.accFloor, "best test accuracy %.4f below the floor %.2f", acc, s.accFloor)
	}
	r.notef("final-params crc %08x after %d epochs; overlap phase %.1f img/s; sync epoch wall at the quiet edge of %d units %.4f, as measured min %.4f p50 %.4f p90 %.4f max %.4f s; Train calls %.3f s as measured",
		crcOf(syncRun.results[0].Params), epochs, float64(s.ranks*s.trainSamples)/overQuiet,
		len(units), quiet, quantile(secs, 0), median(secs), quantile(secs, 0.9), quantile(secs, 1), syncRun.wall+overRun.wall)
	return nil
}

// listeners binds n loopback listeners on ephemeral ports, so in-process
// ranks never collide with each other or with anything else on the box.
func listeners(n int) ([]string, []net.Listener, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		addrs[i], lns[i] = ln.Addr().String(), ln
	}
	return addrs, lns, nil
}
