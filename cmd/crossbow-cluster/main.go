// Command crossbow-cluster drives the scale-out plane: it sweeps the
// simulated cluster size and reports throughput and scaling efficiency,
// trains one cluster configuration end to end (both planes, the servers as
// ranks of this process) when -train is set, or — with -tcp — launches the
// same ranks as a REAL cluster: one crossbow-node process per server on
// localhost, exchanging the average model over TCP.
//
// Usage:
//
//	crossbow-cluster -model resnet32 -gpus 8 -m 2 -servers 1,2,4,8
//	crossbow-cluster -model resnet32 -net infiniband -tau-global 4
//	crossbow-cluster -train -model lenet -servers 2 -epochs 10 -target 0.9
//	crossbow-cluster -tcp -servers 3 -model lenet -epochs 5
//	crossbow-cluster -tcp -servers 3 -node-bin ./crossbow-node -base-port 7200
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"crossbow"
)

func main() {
	model := flag.String("model", "resnet32", "benchmark model (lenet, resnet32, vgg16, resnet50)")
	gpus := flag.Int("gpus", 8, "GPUs per server")
	m := flag.String("m", "1", "learners per GPU, or 'auto' for Algorithm 2")
	batch := flag.Int("batch", 16, "batch size per learner")
	servers := flag.String("servers", "1,2,4,8", "comma-separated cluster sizes to sweep, or a single size with -train")
	net := flag.String("net", "ethernet", "interconnect: ethernet, ethernet25, infiniband")
	tauLocal := flag.Int("tau", 1, "intra-server synchronisation period")
	tauGlobal := flag.Int("tau-global", 1, "cross-server averaging period (in intra-server syncs)")
	train := flag.Bool("train", false, "train end to end instead of sweeping throughput")
	epochs := flag.Int("epochs", 30, "maximum epochs (with -train or -tcp)")
	target := flag.Float64("target", 0, "TTA target accuracy (with -train or -tcp)")
	seed := flag.Uint64("seed", 1, "random seed (with -train or -tcp)")
	tcp := flag.Bool("tcp", false, "launch a real TCP cluster: one crossbow-node process per server on localhost")
	nodeBin := flag.String("node-bin", "", "crossbow-node binary (with -tcp; default: next to this binary, then $PATH)")
	basePort := flag.Int("base-port", 7070, "first localhost port for the node mesh (with -tcp)")
	samples := flag.Int("samples", 0, "override training samples per epoch (with -tcp; 0: model default)")
	overlap := flag.Bool("overlap", false, "overlap the global exchange with computation on every node (with -tcp)")
	flag.Parse()

	learners := 1
	if *m == "auto" {
		learners = crossbow.AutoTune
	} else if _, err := fmt.Sscanf(*m, "%d", &learners); err != nil {
		fmt.Fprintf(os.Stderr, "bad -m %q\n", *m)
		os.Exit(2)
	}

	var ic crossbow.Interconnect
	switch *net {
	case "ethernet":
		ic = crossbow.Ethernet()
	case "ethernet25":
		ic = crossbow.Ethernet25G()
	case "infiniband":
		ic = crossbow.InfiniBand()
	default:
		fmt.Fprintf(os.Stderr, "unknown interconnect %q\n", *net)
		os.Exit(2)
	}

	var sizes []int
	for _, s := range strings.Split(*servers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -servers entry %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}

	cfg := crossbow.Config{
		Model:          crossbow.Model(*model),
		GPUs:           *gpus,
		LearnersPerGPU: learners,
		Batch:          *batch,
		Tau:            *tauLocal,
		TauGlobal:      *tauGlobal,
		Interconnect:   ic,
		MaxEpochs:      *epochs,
		TargetAccuracy: *target,
		Seed:           *seed,
	}

	if *tcp {
		os.Exit(runTCP(tcpOpts{
			servers: sizes[0], bin: *nodeBin, basePort: *basePort,
			model: *model, gpus: *gpus, m: *m, batch: *batch,
			tau: *tauLocal, tauGlobal: *tauGlobal,
			epochs: *epochs, target: *target, seed: *seed, samples: *samples,
			overlap: *overlap,
		}))
	}

	if *train {
		cfg.Servers = sizes[0]
		res, err := crossbow.Train(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("model=%s servers=%d gpus=%d m=%d batch=%d net=%s\n",
			*model, res.Servers, *gpus, res.LearnersPerGPU, *batch, ic.Name)
		fmt.Printf("simulated throughput: %.0f images/s, epoch: %.1f s\n",
			res.ThroughputImgSec, res.EpochSeconds)
		fmt.Printf("%6s %10s %10s %8s\n", "epoch", "time(s)", "loss", "acc(%)")
		for _, p := range res.Series {
			fmt.Printf("%6d %10.1f %10.4f %8.2f\n", p.Epoch, p.TimeSec, p.Loss, p.TestAcc*100)
		}
		fmt.Printf("best accuracy: %.2f%%\n", res.BestAccuracy*100)
		if *target > 0 {
			if res.TTASeconds >= 0 {
				fmt.Printf("TTA(%.0f%%): %.1f s (%d epochs)\n", *target*100, res.TTASeconds, res.EpochsToTarget)
			} else {
				fmt.Printf("target %.0f%% not reached in %d epochs\n", *target*100, *epochs)
			}
		}
		return
	}

	pts, err := crossbow.ClusterSweep(cfg, sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Scale-out sweep: %s, %d GPUs/server, m=%s, b=%d, %s, tau=%d/%d\n",
		*model, *gpus, *m, *batch, ic.Name, *tauLocal, *tauGlobal)
	fmt.Printf("%8s %14s %10s %12s\n", "servers", "images/s", "epoch(s)", "efficiency")
	for _, p := range pts {
		fmt.Printf("%8d %14.0f %10.1f %11.0f%%\n",
			p.Servers, p.ThroughputImgSec, p.EpochSeconds, p.Efficiency*100)
	}
}

// tcpOpts carries the -tcp launcher's resolved flags.
type tcpOpts struct {
	servers   int
	bin       string
	basePort  int
	model     string
	gpus      int
	m         string
	batch     int
	tau       int
	tauGlobal int
	epochs    int
	target    float64
	seed      uint64
	samples   int
	overlap   bool
}

// findNodeBin resolves the crossbow-node binary: explicit flag, then a
// sibling of this executable, then $PATH.
func findNodeBin(flagVal string) (string, error) {
	if flagVal != "" {
		return flagVal, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "crossbow-node")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	return exec.LookPath("crossbow-node")
}

// runTCP launches one crossbow-node process per server on localhost — the
// coordinator-less bootstrap: every process gets the same peer list and
// they dial each other. Node output is streamed with a [rank N] prefix;
// the exit status is the worst of the ranks'.
func runTCP(o tcpOpts) int {
	bin, err := findNodeBin(o.bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbow-cluster: cannot find crossbow-node (build it, or pass -node-bin):", err)
		return 2
	}
	if o.servers < 1 || o.servers > 64 {
		fmt.Fprintf(os.Stderr, "crossbow-cluster: -tcp needs 1..64 servers, got %d\n", o.servers)
		return 2
	}
	peers := make([]string, o.servers)
	for r := range peers {
		peers[r] = fmt.Sprintf("127.0.0.1:%d", o.basePort+r)
	}
	fmt.Printf("launching %d crossbow-node processes (mesh %s)\n", o.servers, strings.Join(peers, ","))

	m := o.m
	if m == "auto" {
		// The offline tuner is deterministic, so every rank resolves the
		// same learner count; pass it through unchanged.
		m = "-1"
	}
	var wg sync.WaitGroup
	status := make([]int, o.servers)
	cmds := make([]*exec.Cmd, o.servers)
	for r := 0; r < o.servers; r++ {
		args := []string{
			"-rank", strconv.Itoa(r),
			"-peers", strings.Join(peers, ","),
			"-model", o.model,
			"-gpus", strconv.Itoa(o.gpus),
			"-m", m,
			"-batch", strconv.Itoa(o.batch),
			"-tau", strconv.Itoa(o.tau),
			"-tau-global", strconv.Itoa(o.tauGlobal),
			"-epochs", strconv.Itoa(o.epochs),
			"-target", strconv.FormatFloat(o.target, 'f', -1, 64),
			"-seed", strconv.FormatUint(o.seed, 10),
			"-quiet",
		}
		if o.samples > 0 {
			args = append(args, "-samples", strconv.Itoa(o.samples))
		}
		if o.overlap {
			args = append(args, "-overlap")
		}
		cmd := exec.Command(bin, args...)
		stdout, _ := cmd.StdoutPipe()
		stderr, _ := cmd.StderrPipe()
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "crossbow-cluster: start rank %d: %v\n", r, err)
			for _, c := range cmds[:r] {
				c.Process.Kill()
			}
			return 1
		}
		cmds[r] = cmd
		prefix := fmt.Sprintf("[rank %d] ", r)
		wg.Add(2)
		go relay(&wg, prefix, stdout, os.Stdout)
		go relay(&wg, prefix, stderr, os.Stderr)
	}
	worst := 0
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "crossbow-cluster: rank %d: %v\n", r, err)
			status[r] = 1
		}
		if status[r] > worst {
			worst = status[r]
		}
	}
	wg.Wait()
	if worst == 0 {
		fmt.Printf("all %d ranks finished cleanly\n", o.servers)
	}
	return worst
}

// relay copies one node's output stream line by line under a rank prefix.
func relay(wg *sync.WaitGroup, prefix string, r io.Reader, w io.Writer) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		fmt.Fprintf(w, "%s%s\n", prefix, sc.Text())
	}
}
