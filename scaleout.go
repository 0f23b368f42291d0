package crossbow

import (
	"fmt"

	"crossbow/internal/core"
	"crossbow/internal/gpusim"
	"crossbow/internal/metrics"
	"crossbow/internal/nn"
)

// Interconnect is the cross-server network cost model of the hardware plane
// (latency + bandwidth under a ring all-reduce). The zero value selects
// 10 Gb/s Ethernet.
type Interconnect = gpusim.Interconnect

// Ethernet returns the commodity 10 Gb/s Ethernet interconnect.
func Ethernet() Interconnect { return gpusim.Ethernet10G() }

// Ethernet25G returns a 25 Gb/s Ethernet interconnect.
func Ethernet25G() Interconnect { return gpusim.Ethernet25G() }

// InfiniBand returns a 100 Gb/s EDR InfiniBand interconnect.
func InfiniBand() Interconnect { return gpusim.InfiniBandEDR() }

// ScalingPoint is one entry of a cluster scale-out sweep.
type ScalingPoint = metrics.ScalingPoint

// ClusterSweep measures hardware-plane throughput for cfg at each cluster
// size in servers (nil or empty selects 1, 2, 4, 8) and returns one point
// per size with scaling efficiency derived from the smallest. cfg.Servers is
// ignored; every other knob (model, GPUs, learners, batch, τ, network)
// applies to each point. AutoTune resolves the learner count once, on the
// smallest cluster, so the sweep varies only the server count. A point's
// EpochSeconds is the time the cluster takes to consume the training set
// once between its servers — the scaling curve's unit, not Train's
// rank-parallel epoch (Config.Servers), which is Servers times that.
func ClusterSweep(cfg Config, servers []int) ([]ScalingPoint, error) {
	if err := fillDefaults(&cfg); err != nil {
		return nil, err
	}
	if _, err := core.ClusterAlgo(cfg.Algo); err != nil {
		return nil, fmt.Errorf("crossbow: %w", err)
	}
	if len(servers) == 0 {
		servers = []int{1, 2, 4, 8}
	}
	smallest := servers[0]
	for _, n := range servers {
		if n < 1 {
			return nil, fmt.Errorf("crossbow: invalid cluster size %d", n)
		}
		if n < smallest {
			smallest = n
		}
	}
	c := cfg
	c.Servers = smallest
	m, _ := resolveLearners(c)
	spec := nn.FullSpec(cfg.Model)
	points := make([]ScalingPoint, 0, len(servers))
	for _, n := range servers {
		c.Servers = n
		tp := hardwareThroughput(c, m)
		p := ScalingPoint{Servers: n, ThroughputImgSec: tp}
		if tp > 0 {
			p.EpochSeconds = float64(spec.TrainSamples) / tp
		}
		points = append(points, p)
	}
	metrics.FillScalingEfficiency(points)
	return points, nil
}
