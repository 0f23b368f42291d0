package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"

	"crossbow"
	"crossbow/internal/transport"
)

// clusterCmd drives the scale-out plane: it sweeps the simulated cluster
// size and reports throughput and scaling efficiency, trains one cluster
// configuration end to end (both planes, the servers as ranks of this
// process) when -train is set, or — with -tcp — launches the same ranks as
// a REAL cluster: one `crossbow node` process of this same binary per
// server on localhost, exchanging the average model over TCP.
//
//	crossbow cluster -model resnet32 -gpus 8 -m 2 -servers 1,2,4,8
//	crossbow cluster -model resnet32 -net infiniband -tau-global 4
//	crossbow cluster -train -model lenet -servers 2 -epochs 10 -target 0.9
//	crossbow cluster -tcp -servers 3 -model lenet -epochs 5 -base-port 7200
func clusterCmd(fs *flag.FlagSet) runner {
	var t training
	t.register(fs, 8, 30, true)
	servers := fs.String("servers", "1,2,4,8", "comma-separated cluster sizes to sweep, or a single size with -train or -tcp")
	net := fs.String("net", "ethernet", "interconnect: ethernet, ethernet25, infiniband")
	train := fs.Bool("train", false, "train end to end instead of sweeping throughput")
	tcp := fs.Bool("tcp", false, "launch a real TCP cluster: one crossbow node process per server on localhost")
	basePort := fs.Int("base-port", 7070, "first localhost port for the node mesh (with -tcp)")

	return func(stdout, stderr io.Writer) int {
		cfg, err := t.config()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		switch *net {
		case "ethernet":
			cfg.Interconnect = crossbow.Ethernet()
		case "ethernet25":
			cfg.Interconnect = crossbow.Ethernet25G()
		case "infiniband":
			cfg.Interconnect = crossbow.InfiniBand()
		default:
			fmt.Fprintf(stderr, "unknown interconnect %q\n", *net)
			return 2
		}
		var sizes []int
		for _, e := range strings.Split(*servers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(e))
			if err != nil || n < 1 {
				fmt.Fprintf(stderr, "bad -servers entry %q\n", e)
				return 2
			}
			sizes = append(sizes, n)
		}

		switch {
		case *tcp:
			return runTCP(fs, sizes[0], *basePort, stdout, stderr)
		case *train:
			cfg.Servers = sizes[0]
			if !fillDefaults(&cfg, stderr) {
				return 1
			}
			res, err := crossbow.Train(cfg)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "model=%s servers=%d gpus=%d m=%d batch=%d net=%s\n",
				cfg.Model, res.Servers, cfg.GPUs, res.LearnersPerGPU, cfg.Batch, cfg.Interconnect.Name)
			fmt.Fprintf(stdout, "simulated throughput: %.0f images/s, epoch: %.1f s\n",
				res.ThroughputImgSec, res.EpochSeconds)
			printSeries(stdout, res, cfg)
			return 0
		}

		if !fillDefaults(&cfg, stderr) {
			return 1
		}
		pts, err := crossbow.ClusterSweep(cfg, sizes)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "Scale-out sweep: %s, %d GPUs/server, m=%s, b=%d, %s, tau=%d/%d\n",
			cfg.Model, cfg.GPUs, t.m, cfg.Batch, cfg.Interconnect.Name, cfg.Tau, cfg.TauGlobal)
		fmt.Fprintf(stdout, "%8s %14s %10s %12s\n", "servers", "images/s", "epoch(s)", "efficiency")
		for _, p := range pts {
			fmt.Fprintf(stdout, "%8d %14.0f %10.1f %11.0f%%\n",
				p.Servers, p.ThroughputImgSec, p.EpochSeconds, p.Efficiency*100)
		}
		return 0
	}
}

// nodeArgs is the command line of rank r of a -tcp launch: `node`, the
// rank and the mesh, then every flag of the launcher's that `node` also
// takes, with its value — so a node trains exactly the run the launcher was
// given, defaults included.
func nodeArgs(launcher *flag.FlagSet, r int, peers []string) []string {
	node := flag.NewFlagSet("node", flag.ContinueOnError)
	nodeCmd(node)
	args := []string{"node", "-rank", strconv.Itoa(r), "-peers", strings.Join(peers, ","), "-quiet"}
	launcher.VisitAll(func(f *flag.Flag) {
		if node.Lookup(f.Name) != nil {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return args
}

// runTCP launches one node process per server on localhost — the
// coordinator-less bootstrap: every process gets the same peer list and
// they dial each other. The nodes are this binary re-executed as
// `crossbow node`, so launcher and nodes are always the same build and
// speak the same wire version. Node output is streamed with a [rank N]
// prefix; the exit status is the worst of the ranks'.
func runTCP(fs *flag.FlagSet, servers, basePort int, stdout, stderr io.Writer) int {
	if servers < 1 || servers > transport.MaxRanks {
		fmt.Fprintf(stderr, "crossbow cluster: -tcp needs 1..%d servers, got %d\n", transport.MaxRanks, servers)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "crossbow cluster:", err)
		return 1
	}
	peers := make([]string, servers)
	for r := range peers {
		peers[r] = fmt.Sprintf("127.0.0.1:%d", basePort+r)
	}
	fmt.Fprintf(stdout, "launching %d crossbow node processes (mesh %s)\n", servers, strings.Join(peers, ","))

	var (
		wg sync.WaitGroup
		mu sync.Mutex // one line at a time, whichever rank and stream it is from
	)
	cmds := make([]*exec.Cmd, servers)
	for r := range cmds {
		cmd := exec.Command(self, nodeArgs(fs, r, peers)...)
		rout, _ := cmd.StdoutPipe()
		rerr, _ := cmd.StderrPipe()
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "crossbow cluster: start rank %d: %v\n", r, err)
			for _, c := range cmds[:r] {
				c.Process.Kill()
			}
			return 1
		}
		cmds[r] = cmd
		prefix := fmt.Sprintf("[rank %d] ", r)
		wg.Add(2)
		go relay(&wg, &mu, prefix, rout, stdout)
		go relay(&wg, &mu, prefix, rerr, stderr)
	}
	// The pipes are drained before Wait, which closes them.
	wg.Wait()
	status := 0
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(stderr, "crossbow cluster: rank %d: %v\n", r, err)
			status = 1
		}
	}
	if status == 0 {
		fmt.Fprintf(stdout, "all %d ranks finished cleanly\n", servers)
	}
	return status
}

// relay copies one node's output stream line by line under a rank prefix.
func relay(wg *sync.WaitGroup, mu *sync.Mutex, prefix string, r io.Reader, w io.Writer) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		mu.Lock()
		fmt.Fprintf(w, "%s%s\n", prefix, sc.Text())
		mu.Unlock()
	}
}
