// Cluster scale-out demonstration: the paper's 8-GPU server (§5) scaled
// out to 8 such servers. The sweep shows where scale-out pays: ResNet-32's
// small model rides even commodity Ethernet to near-linear throughput,
// while the interconnect choice and the cross-server averaging period
// τ_global decide how much of that throughput survives on bigger models.
// The sweeps run on the hardware plane alone (the simulated cluster); the
// closing training run is two ranks of this process, the same ranks a TCP
// cluster would run, averaging through memory instead of sockets.
package main

import (
	"fmt"

	"crossbow"
)

func main() {
	sizes := []int{1, 2, 4, 8}

	fmt.Println("ResNet-32, 8 GPUs/server, m=2, b=16 — 1 to 8 servers over 10GbE:")
	fmt.Printf("%8s %14s %10s %12s\n", "servers", "images/s", "epoch(s)", "efficiency")
	pts, err := crossbow.ClusterSweep(crossbow.Config{
		Model: crossbow.ResNet32, GPUs: 8, LearnersPerGPU: 2, Batch: 16,
		Interconnect: crossbow.Ethernet(),
	}, sizes)
	if err != nil {
		panic(err)
	}
	for _, p := range pts {
		fmt.Printf("%8d %14.0f %10.1f %11.0f%%\n",
			p.Servers, p.ThroughputImgSec, p.EpochSeconds, p.Efficiency*100)
	}

	fmt.Println("\nInterconnects at 8 servers (VGG-16, the bandwidth-hungry model):")
	for _, ic := range []crossbow.Interconnect{
		crossbow.Ethernet(), crossbow.Ethernet25G(), crossbow.InfiniBand(),
	} {
		tp, err := crossbow.Throughput(crossbow.Config{
			Model: crossbow.VGG16, Servers: 8, GPUs: 8, LearnersPerGPU: 1,
			Batch: 16, Interconnect: ic,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-8s %12.0f images/s\n", ic.Name, tp)
	}

	fmt.Println("\nRelaxing tau_global on VGG-16 over 10GbE (8 servers):")
	for _, tg := range []int{1, 2, 4, 8} {
		tp, err := crossbow.Throughput(crossbow.Config{
			Model: crossbow.VGG16, Servers: 8, GPUs: 8, LearnersPerGPU: 1,
			Batch: 16, TauGlobal: tg, Interconnect: crossbow.Ethernet(),
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("  tau_global=%d %12.0f images/s\n", tg, tp)
	}

	fmt.Println("\nEnd-to-end cluster training (LeNet, 2 servers as 2 in-process ranks, both planes):")
	res, err := crossbow.Train(crossbow.Config{
		Model: crossbow.LeNet, Servers: 2, GPUs: 1, LearnersPerGPU: 2,
		Batch: 8, MaxEpochs: 5, Interconnect: crossbow.InfiniBand(),
	})
	if err != nil {
		panic(err)
	}
	for _, p := range res.Series {
		fmt.Printf("  epoch %2d  t=%6.1fs  acc=%5.2f%%\n", p.Epoch, p.TimeSec, p.TestAcc*100)
	}
	fmt.Printf("  throughput %.0f images/s across %d servers\n", res.ThroughputImgSec, res.Servers)
}
