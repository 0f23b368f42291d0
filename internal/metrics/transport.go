package metrics

import "time"

// TransportStats is one node's view of the TCP cluster transport: traffic
// volume, membership churn, and the per-round synchronisation wall time
// distribution. The transport records round times into a LatencyRecorder
// and snapshots its quantiles here, so reading stats never perturbs the
// hot path.
type TransportStats struct {
	Rank      int   `json:"rank"`
	Peers     int   `json:"peers"`      // static cluster size
	LivePeers int   `json:"live_peers"` // currently alive (excluding self)
	Epoch     int64 `json:"epoch"`      // membership epoch (flips so far)

	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`

	Rounds        int64 `json:"rounds"`         // completed all-reduce rounds
	RestartRounds int64 `json:"restart_rounds"` // rounds begun with a changed view
	Aborts        int64 `json:"aborts"`         // collectives cut short by churn
	Reconnects    int64 `json:"reconnects"`     // live connections replaced
	PeerDeaths    int64 `json:"peer_deaths"`    // alive→dead transitions observed

	// Fault-handling counters: rounds cut by the per-step watchdog, frames
	// rejected as corrupt (bad checksum or framing), and peers barred from
	// reconnecting after being caught corrupting or stalling.
	WatchdogFires int64 `json:"watchdog_fires"`
	CorruptFrames int64 `json:"corrupt_frames"`
	Quarantines   int64 `json:"quarantines"`

	SnapshotsServed  int64 `json:"snapshots_served"`
	SnapshotsFetched int64 `json:"snapshots_fetched"`

	// Round sync wall time (barrier wait + collective), from the
	// lock-free recorder.
	RoundMean time.Duration `json:"round_mean_ns"`
	RoundP50  time.Duration `json:"round_p50_ns"`
	RoundP99  time.Duration `json:"round_p99_ns"`
	RoundMax  time.Duration `json:"round_max_ns"`

	// CollectiveMean isolates the data phase — the quantity the simulated
	// interconnect's AllReduceUS predicts.
	CollectiveMean time.Duration `json:"collective_mean_ns"`

	// Per-phase totals across all rounds: time at the round barrier, in
	// the reduce-scatter half and in the all-gather half.
	BarrierWaitNs   int64 `json:"barrier_wait_ns"`
	ReduceScatterNs int64 `json:"reduce_scatter_ns"`
	AllGatherNs     int64 `json:"all_gather_ns"`

	// Asynchronous (overlapped) rounds: how many ran through
	// BeginAllReduce, how much of their wall time proceeded concurrently
	// with computation (hidden), and how much still stalled the caller in
	// Wait (blocked — the exposed cost of the exchange).
	AsyncRounds      int64 `json:"async_rounds"`
	OverlapHiddenNs  int64 `json:"overlap_hidden_ns"`
	OverlapBlockedNs int64 `json:"overlap_blocked_ns"`
}
