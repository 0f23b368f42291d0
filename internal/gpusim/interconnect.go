package gpusim

// Interconnect is the cost model of the cross-server network: a flat
// latency/bandwidth link model under the bandwidth-optimal ring all-reduce
// the cross-server average runs — the same collective the paper uses
// across GPUs (§4.2), one tier up.
type Interconnect struct {
	// Name labels the preset (for reports).
	Name string
	// LatencyUS is the one-way message latency per collective step.
	LatencyUS float64
	// BytesPerUS is effective point-to-point bandwidth per server NIC.
	BytesPerUS float64
}

// Ethernet10G returns the commodity-cluster default: 10 Gb/s Ethernet
// (~1.25 GB/s) with kernel-stack latency.
func Ethernet10G() Interconnect {
	return Interconnect{Name: "10GbE", LatencyUS: 50, BytesPerUS: 1_250}
}

// Ethernet25G returns a 25 Gb/s Ethernet model with lighter (DPDK-class)
// latency.
func Ethernet25G() Interconnect {
	return Interconnect{Name: "25GbE", LatencyUS: 20, BytesPerUS: 3_125}
}

// InfiniBandEDR returns a 100 Gb/s EDR InfiniBand model with RDMA latency.
func InfiniBandEDR() Interconnect {
	return Interconnect{Name: "IB-EDR", LatencyUS: 2, BytesPerUS: 12_500}
}

// Presets returns every named interconnect cost model, in
// slowest-to-fastest order. Sweeps and validation harnesses (the real TCP
// transport reports its measured all-reduce time next to each preset's
// AllReduceUS prediction) iterate this list instead of hard-coding the
// constructors.
func Presets() []Interconnect {
	return []Interconnect{Ethernet10G(), Ethernet25G(), InfiniBandEDR()}
}

// AllReduceUS returns the duration of a ring all-reduce of n bytes across
// servers server nodes: 2(k−1) pipeline steps of n/k bytes each,
// bandwidth-optimal but latency-heavy.
func (ic Interconnect) AllReduceUS(bytes int64, servers int) float64 {
	if servers <= 1 || bytes <= 0 {
		return 0
	}
	steps := 2 * (servers - 1)
	chunk := float64(bytes) / float64(servers)
	return float64(steps) * (ic.LatencyUS + chunk/ic.BytesPerUS)
}
