// Command crossbow is the command line of this Crossbow reproduction: one
// binary whose subcommands (train, serve, node, cluster, figures; see
// commands) each document their usage beside their flags.
//
//	crossbow <subcommand> [flags]
//	crossbow <subcommand> -h          # the subcommand's flags
//
// A flag that several subcommands take is registered in one place (the
// functions below) and means the same everywhere.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"crossbow"
)

// runner runs a subcommand whose flags are parsed and returns its exit
// status.
type runner func(stdout, stderr io.Writer) int

// command is one subcommand. setup registers its flags on fs and returns
// its runner.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) runner
}

var commands = []command{
	{"train", "train one model on one server", trainCmd},
	{"serve", "serve a trained model over HTTP/JSON", serveCmd},
	{"node", "run one server of a real TCP cluster", nodeCmd},
	{"cluster", "sweep, train or launch a cluster of servers", clusterCmd},
	{"figures", "regenerate the paper's tables and figures", figuresCmd},
}

func main() {
	// All work happens in run, so deferred profile finalizers execute even
	// on error exits (os.Exit would skip them).
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line (without the program name) and returns the
// exit status: 2 for a usage error, 0 for -h.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	}
	fs, exec := flagSet(args[0], stderr)
	if fs == nil {
		fmt.Fprintf(stderr, "crossbow: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "crossbow %s: unexpected argument %q\n", args[0], fs.Arg(0))
		return 2
	}
	return exec(stdout, stderr)
}

// flagSet registers a subcommand's flags and returns them with its runner;
// nil if there is no such subcommand.
func flagSet(name string, stderr io.Writer) (*flag.FlagSet, runner) {
	for _, c := range commands {
		if c.name == name {
			fs := flag.NewFlagSet("crossbow "+name, flag.ContinueOnError)
			fs.SetOutput(stderr)
			return fs, c.setup(fs)
		}
	}
	return nil, nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: crossbow <subcommand> [flags]   (crossbow <subcommand> -h lists the flags)")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
}

// modelFlag registers -model, which every subcommand takes.
func modelFlag(fs *flag.FlagSet, model *string, def string) {
	fs.StringVar(model, "model", def, "benchmark model (lenet, resnet32, vgg16, resnet50)")
}

// gpusFlag registers -gpus, which every subcommand but serve takes.
func gpusFlag(fs *flag.FlagSet, gpus *int, def int) {
	fs.IntVar(gpus, "gpus", def, "simulated GPUs per server")
}

// training is the shape and length of a training run, taken by train, node
// and cluster; gpus and epochs default per subcommand. With scaleOut (node
// and cluster) it takes the cross-server options too.
type training struct {
	model, m                 string
	gpus, batch, tau, epochs int
	tauGlobal, samples       int
	target                   float64
	seed                     uint64
	overlap                  bool
}

func (t *training) register(fs *flag.FlagSet, gpus, epochs int, scaleOut bool) {
	modelFlag(fs, &t.model, "resnet32")
	gpusFlag(fs, &t.gpus, gpus)
	fs.StringVar(&t.m, "m", "1", "learners per GPU, or 'auto' for Algorithm 2")
	fs.IntVar(&t.batch, "batch", 0, "batch size per learner (0: the default)")
	fs.IntVar(&t.tau, "tau", 0, "intra-server synchronisation period (0: the default)")
	fs.IntVar(&t.epochs, "epochs", epochs, "maximum epochs")
	fs.Float64Var(&t.target, "target", 0, "stop at this test accuracy (TTA target); 0 trains all epochs")
	fs.Uint64Var(&t.seed, "seed", 0, "random seed, the same on every rank of a cluster (0: the default)")
	if scaleOut {
		fs.IntVar(&t.tauGlobal, "tau-global", 0, "cross-server averaging period in intra-server syncs (0: the default)")
		fs.IntVar(&t.samples, "samples", 0, "override training samples per epoch (0: model default)")
		fs.BoolVar(&t.overlap, "overlap", false, "overlap the global exchange with the next iteration's computation on a TCP node (bit-identical to synchronous)")
	}
}

// config is the run the flags describe. Flags that default to 0 leave the
// option to crossbow.Config's default (Config.FillDefaults, the one place
// each lives); fillDefaults resolves them before a command prints them.
func (t *training) config() (crossbow.Config, error) {
	m := crossbow.AutoTune
	if t.m != "auto" {
		var err error
		if m, err = strconv.Atoi(t.m); err != nil {
			return crossbow.Config{}, fmt.Errorf("bad -m %q", t.m)
		}
	}
	return crossbow.Config{
		Model:          crossbow.Model(t.model),
		GPUs:           t.gpus,
		LearnersPerGPU: m,
		Batch:          t.batch,
		Tau:            t.tau,
		TauGlobal:      t.tauGlobal,
		MaxEpochs:      t.epochs,
		TargetAccuracy: t.target,
		Seed:           t.seed,
		TrainSamples:   t.samples,
	}, nil
}

// fillDefaults resolves cfg's defaults, so what a command prints is what
// the run uses, and reports an invalid configuration as Train would.
func fillDefaults(cfg *crossbow.Config, stderr io.Writer) bool {
	if err := cfg.FillDefaults(); err != nil {
		fmt.Fprintf(stderr, "crossbow: %v\n", err)
		return false
	}
	return true
}

// printSeries prints a run's per-epoch table and its best and TTA lines.
func printSeries(w io.Writer, res *crossbow.Result, cfg crossbow.Config) {
	fmt.Fprintf(w, "%6s %10s %10s %8s\n", "epoch", "time(s)", "loss", "acc(%)")
	for _, p := range res.Series {
		fmt.Fprintf(w, "%6d %10.1f %10.4f %8.2f\n", p.Epoch, p.TimeSec, p.Loss, p.TestAcc*100)
	}
	fmt.Fprintf(w, "best accuracy: %.2f%%\n", res.BestAccuracy*100)
	if cfg.TargetAccuracy > 0 {
		if res.TTASeconds >= 0 {
			fmt.Fprintf(w, "TTA(%.0f%%): %.1f s (%d epochs)\n", cfg.TargetAccuracy*100, res.TTASeconds, res.EpochsToTarget)
		} else {
			fmt.Fprintf(w, "target %.0f%% not reached in %d epochs\n", cfg.TargetAccuracy*100, cfg.MaxEpochs)
		}
	}
}
