// Real TCP cluster demonstration: three OS processes train LeNet together,
// exchanging the cross-server central average over localhost TCP
// (Config.Transport: TransportTCP) instead of the simulated scale-out
// plane. There is no coordinator — every process gets the same peer list
// and they bootstrap by dialing each other; synchronous model averaging
// (SMA, §3.2) keeps the cluster average bit-identical on every rank, which
// the parent verifies by comparing the model hashes the ranks print.
//
// Run with no arguments: the process picks three free ports and re-executes
// itself once per rank.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"crossbow"
)

const servers = 3

func main() {
	rank := flag.Int("rank", -1, "internal: worker rank (set by the launcher)")
	peers := flag.String("peers", "", "internal: worker peer list (set by the launcher)")
	flag.Parse()
	if *rank >= 0 {
		os.Exit(worker(*rank, strings.Split(*peers, ",")))
	}
	os.Exit(launch())
}

// launch picks free localhost ports, spawns one copy of this binary per
// rank, and relays their output.
func launch() int {
	addrs := make([]string, servers)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		addrs[i] = ln.Addr().String()
		ln.Close() // the worker rebinds; localhost port churn is negligible
	}
	fmt.Printf("launching %d processes: %s\n\n", servers, strings.Join(addrs, " "))

	var wg sync.WaitGroup
	cmds := make([]*exec.Cmd, servers)
	for r := 0; r < servers; r++ {
		cmd := exec.Command(os.Args[0],
			"-rank", strconv.Itoa(r), "-peers", strings.Join(addrs, ","))
		stdout, _ := cmd.StdoutPipe()
		stderr, _ := cmd.StderrPipe()
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cmds[r] = cmd
		wg.Add(2)
		go relay(&wg, stdout, os.Stdout)
		go relay(&wg, stderr, os.Stderr)
	}
	status := 0
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: %v\n", r, err)
			status = 1
		}
	}
	wg.Wait()
	if status == 0 {
		fmt.Println("\nall ranks finished; identical model hashes above = bit-replicated cluster average")
	}
	return status
}

// worker is one rank: an ordinary crossbow.Train call with the TCP
// transport plane selected.
func worker(rank int, peers []string) int {
	res, err := crossbow.Train(crossbow.Config{
		Model:          crossbow.LeNet,
		Transport:      crossbow.TransportTCP,
		GPUs:           1,
		LearnersPerGPU: 2,
		Batch:          8,
		MaxEpochs:      2,
		Seed:           42, // identical on every rank: replicated initial model
		TrainSamples:   512,
		TestSamples:    256,
		Node:           crossbow.NodeConfig{Rank: rank, Peers: peers},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rank %d: %v\n", rank, err)
		return 1
	}

	h := fnv.New64a()
	var b [4]byte
	for _, p := range res.Params {
		bits := math.Float32bits(p)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	ts := res.TransportStats
	fmt.Printf("rank %d/%d: acc %.2f%%  model hash %016x  (%d rounds, %d KiB on the wire, round p50 %v)\n",
		rank, res.Servers, res.BestAccuracy*100, h.Sum64(),
		ts.Rounds, ts.BytesSent>>10, ts.RoundP50.Round(10*time.Microsecond))
	return 0
}

func relay(wg *sync.WaitGroup, r io.Reader, w io.Writer) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		fmt.Fprintln(w, sc.Text())
	}
}
