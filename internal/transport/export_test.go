package transport

// The cluster helpers of this package's tests, for the external tests that
// check the transport against core.Loopback (core imports this package, so
// those tests cannot live inside it).
var (
	StartCluster = startCluster
	RunRound     = runRound
	RandomBufs   = randomBufs
	CheckSums    = checkSums
)
