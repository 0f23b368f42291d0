package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
)

// runAsMain, set in a process's environment, makes this test binary behave
// as the crossbow binary: `cluster -tcp` re-executes os.Executable() as
// `crossbow node`, and under test that executable is the test binary.
const runAsMain = "CROSSBOW_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestDispatch pins the front door: no subcommand or an unknown one is a
// usage error that lists the five, help exits 0, and a bad flag or a stray
// argument exits 2 before anything runs.
func TestDispatch(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stdout bool // usage on stdout rather than stderr
	}{
		{nil, 2, false},
		{[]string{"bench"}, 2, false},
		{[]string{"crossbow-node"}, 2, false},
		{[]string{"help"}, 0, true},
		{[]string{"-h"}, 0, true},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%q exited %d, want %d", tc.args, code, tc.code)
		}
		out := stderr.String()
		if tc.stdout {
			out = stdout.String()
		}
		for _, c := range commands {
			if !strings.Contains(out, c.name) {
				t.Errorf("%q: usage does not name %q: %s", tc.args, c.name, out)
			}
		}
	}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"train", "-h"}, 0},
		{[]string{"train", "-nosuch"}, 2},
		{[]string{"node", "-rank", "0", "stray"}, 2},
		{[]string{"node", "-model", "lenet"}, 2},                 // -peers is required
		{[]string{"cluster", "-m", "two"}, 2},                    // -m is a count or auto
		{[]string{"cluster", "-net", "token-ring"}, 2},           // unknown interconnect
		{[]string{"cluster", "-tcp", "-servers", "0,1"}, 2},      // bad size
		{[]string{"serve", "-model", "lenet", "-replicas=x"}, 2}, // not an int
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%q exited %d, want %d (stderr %s)", tc.args, code, tc.code, stderr.String())
		}
	}
}

// TestTrainUnknownAlgorithm: `train -algo` with a name outside the four
// exits 1 with an error naming it, instead of panicking mid set-up.
func TestTrainUnknownAlgorithm(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"train", "-model", "lenet", "-epochs", "1", "-algo", "bogus"}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exited %d, want 1 (stderr %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"bogus"`) || strings.Contains(stderr.String(), "panic") {
		t.Errorf("stderr %q, want an error naming the algorithm", stderr.String())
	}
}

// TestSharedFlagsMeanOneThing: a flag name that several subcommands take
// is one registration, so its help text is the same in each.
func TestSharedFlagsMeanOneThing(t *testing.T) {
	usage := map[string]string{}
	takenBy := map[string][]string{}
	for _, c := range commands {
		fs, _ := flagSet(c.name, io.Discard)
		fs.VisitAll(func(f *flag.Flag) {
			if u, ok := usage[f.Name]; ok && u != f.Usage {
				t.Errorf("-%s means %q in %v but %q in %s", f.Name, u, takenBy[f.Name], f.Usage, c.name)
			}
			usage[f.Name] = f.Usage
			takenBy[f.Name] = append(takenBy[f.Name], c.name)
		})
	}
	for name, want := range map[string]int{"model": 5, "gpus": 4, "m": 3, "seed": 3, "samples": 2, "tau-global": 2, "overlap": 2} {
		if got := len(takenBy[name]); got != want {
			t.Errorf("-%s is taken by %v, want %d subcommands", name, takenBy[name], want)
		}
	}
}

// TestNodeArgsForwardTheRun: a -tcp launch hands every node each flag the
// launcher shares with `node`, at the launcher's value — its defaults
// included, which differ from node's own — and none of the launcher's own.
func TestNodeArgsForwardTheRun(t *testing.T) {
	launcher, _ := flagSet("cluster", io.Discard)
	if err := launcher.Parse([]string{"-tcp", "-servers", "3", "-model", "lenet", "-m", "auto", "-target", "0.125", "-overlap", "-samples", "64"}); err != nil {
		t.Fatal(err)
	}
	args := nodeArgs(launcher, 2, []string{"a:1", "b:2", "c:3"})
	if args[0] != "node" {
		t.Fatalf("node command line %q", args)
	}
	node, _ := flagSet("node", io.Discard)
	if err := node.Parse(args[1:]); err != nil {
		t.Fatalf("node rejects %q: %v", args, err)
	}
	want := map[string]string{
		"rank": "2", "peers": "a:1,b:2,c:3", "quiet": "true",
		"model": "lenet", "m": "auto", "target": "0.125", "overlap": "true", "samples": "64",
		"gpus": "8", "epochs": "30", // the launcher's defaults, not node's 1 and 10
	}
	for name, v := range want {
		if got := node.Lookup(name).Value.String(); got != v {
			t.Errorf("node -%s = %s, want %s (args %q)", name, got, v, args)
		}
	}
	for _, a := range args {
		for _, own := range []string{"-tcp", "-servers", "-net", "-train", "-base-port"} {
			if strings.HasPrefix(a, own+"=") || a == own {
				t.Errorf("launcher-only flag forwarded: %s", a)
			}
		}
	}
}

// freeBasePort returns a port p such that p … p+n-1 are free on loopback
// right now.
func freeBasePort(t *testing.T, n int) int {
	t.Helper()
	for try := 0; try < 50; try++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := ln.Addr().(*net.TCPAddr).Port
		lns := []net.Listener{ln}
		for i := 1; i < n; i++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				break
			}
			lns = append(lns, l)
		}
		for _, l := range lns {
			l.Close()
		}
		if len(lns) == n {
			return base
		}
	}
	t.Fatalf("no %d consecutive free ports", n)
	return 0
}

// TestClusterTCPReexecutesItself is the 3-process TCP smoke through the
// front door: `cluster -tcp` starts its ranks as `node` processes of its
// own binary (no second binary to find), and every rank trains through its
// global rounds and exits cleanly.
func TestClusterTCPReexecutesItself(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	t.Setenv(runAsMain, "1")
	const servers = 3
	var stdout, stderr bytes.Buffer
	code := run([]string{"cluster", "-tcp", "-servers", strconv.Itoa(servers),
		"-model", "lenet", "-gpus", "1", "-m", "2", "-batch", "8", "-epochs", "1", "-samples", "64",
		"-base-port", strconv.Itoa(freeBasePort(t, servers))}, &stdout, &stderr)
	out := stdout.String()
	if code != 0 {
		t.Fatalf("cluster -tcp exited %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr.String())
	}
	for r := 0; r < servers; r++ {
		if want := fmt.Sprintf("[rank %d] rank %d: best accuracy", r, r); !strings.Contains(out, want) {
			t.Errorf("no %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("all %d ranks finished cleanly", servers)) || strings.Contains(out, "warm-started") {
		t.Errorf("a cold 3-rank launch printed:\n%s", out)
	}
}
