// Package transport is the cluster plane's real network: N crossbow
// processes exchanging the cross-server average model over TCP, where
// internal/engine only *simulates* the exchange on a discrete-event clock.
// The simulated interconnect stays alive as the cost-model oracle this
// package is validated against (DESIGN.md §12).
//
// A Node owns one rank of a static peer list. Bootstrap is
// coordinator-less: every node listens on its own address and the
// lower-ranked end of each pair dials the higher-ranked end, with backoff,
// until the mesh is up; the same dial loops re-establish connections after
// a drop, so a restarted process rejoins without any central party.
//
// Config is the node's one options struct and also the public
// crossbow.NodeConfig. Config.FillDefaults, which Listen and crossbow.Train
// both call before any set-up, holds every default and the 1..MaxRanks
// peer bound; the frame write timeout and payload bound are constants. The
// two waits and OverlapGlobal are read by the trainer around the node.
//
// On the mesh the node runs three protocols:
//
//   - Membership: heartbeat frames flow on every connection; a peer whose
//     traffic stops for PeerTimeout is marked dead and the membership epoch
//     advances. Reconnection (or a Hello from a restarted process) marks it
//     alive again. Views are rank bitmaps; the lowest alive rank acts as
//     the round coordinator.
//   - Rounds: AllReduce callers barrier through a Ready/Begin handshake
//     with the current coordinator, which assigns the round number and the
//     participant view. A round whose view differs from the previous
//     round's is flagged Restart: every participant re-derives the cluster
//     average model from the consensus sum instead of updating it
//     incrementally, which heals any divergence a death, drop or rejoin
//     introduced (the §3.2 restart applied at the membership boundary).
//   - Collective: the participants all-reduce length-prefixed tensor
//     frames. View index c owns chunk c: every rank sends its slice of a
//     chunk to the owner, the owner folds the slices in ascending rank
//     order, ((b0+b1)+b2)+… as core.Loopback does, and sends the sum to
//     every peer — the bytes of the ring the gpusim.Interconnect cost
//     model prices, in two latency steps. The summed bytes are
//     identical on every participant and equal to the loopback's.
//     Each chunk is split into pipelined segments so summation hides under
//     transmission — one per 512 KiB of the chunk, 1 to 4, with nothing to
//     configure; segment counts and boundaries are derived identically on
//     both ends from the chunk's range and addInto is element-wise, so
//     segmentation changes no bits.
//     A round whose collective is cut short reports Aborted; the caller
//     skips that exchange, and this node's next round carries Restart
//     (DESIGN.md §13). A frame is one writev
//     and a round allocates nothing, and while a round is in flight the
//     read loops spin briefly on an empty socket before they park, so the
//     peer's bytes are read as they land (DESIGN.md §15).
//
// AllReduce blocks the caller for the whole round. BeginAllReduce is the
// asynchronous form: it hands the buffer to the node's exchange goroutine
// and returns a PendingRound handle (Poll/Wait), letting the caller
// compute while the identical round runs — the τ_global overlap of
// DESIGN.md §15. Stats meter the split between hidden and exposed
// exchange time.
//
// A rejoining process seeds its model by pulling a checkpoint-v3 snapshot
// from a live peer (FetchSnapshot) before training, then enters the next
// round like any other member. The probe asks every live peer at once and
// decides from their answers: the first snapshot wins, and once every
// asked peer has answered that it holds none the cluster is cold, one
// round trip after the ask. Only silence (no answer, a lost frame, an
// unparseable payload) keeps it waiting, re-asking at each membership
// change, for at most its timeout.
//
// The package also carries the serving fleet's model feed (publish.go,
// DESIGN.md §16): a Publisher streams published snapshots to Followers,
// each as a delta against the round the follower holds. The feed takes no
// options — NewPublisher(addr) and Follow(addr, round, params, onUpdate)
// take what its users set; the history of 8 delta bases, the chunk size
// and the write, drain, payload and dial bounds are constants.
package transport
