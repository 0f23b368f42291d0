package main

import (
	"bytes"
	"strings"
	"testing"
)

// allOrder pins the order -exp all visits the experiments in: the twelve
// tables/figures, then the auto-tuner.
var allOrder = []string{
	"table1", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13",
	"fig14", "fig15", "fig16", "fig17", "autotune",
}

func selectedNames(exp string) []string {
	var ns []string
	for _, e := range selectExperiments(exp) {
		ns = append(ns, e.name)
	}
	return ns
}

// TestSelection checks the table on the selection alone (running every
// row is minutes of training): each name selects exactly itself, "all"
// selects every row in order.
func TestSelection(t *testing.T) {
	for _, e := range table {
		if got := selectedNames(e.name); len(got) != 1 || got[0] != e.name {
			t.Errorf("-exp %s selects %v", e.name, got)
		}
	}
	if got := selectedNames("all"); strings.Join(got, " ") != strings.Join(allOrder, " ") {
		t.Errorf("-exp all selects %v, want %v", got, allOrder)
	}
}

// TestSimulatorOnlyExperimentsRun drives the rows that need no training
// through the front door and checks each prints its own result and timing
// line and nothing to stderr.
func TestSimulatorOnlyExperimentsRun(t *testing.T) {
	for exp, want := range map[string]string{
		"table1":   "ILSVRC",
		"fig2":     "Figure 2",
		"fig17":    "Figure 17",
		"autotune": "chosen: m=",
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", exp}, &stdout, &stderr); code != 0 {
			t.Fatalf("-exp %s exited %d: %s", exp, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, want) || !strings.Contains(out, "["+exp+" took ") {
			t.Errorf("-exp %s printed %q; want %q and its timing line", exp, out, want)
		}
		if stderr.Len() != 0 {
			t.Errorf("-exp %s wrote to stderr: %s", exp, stderr.String())
		}
	}
}

// TestUnknownNamesExitTwo: a name outside the table (the deleted system
// benches included) must not pass silently — exit 2, nothing on stdout,
// and the valid names on stderr.
func TestUnknownNamesExitTwo(t *testing.T) {
	for _, exp := range []string{"nosuch", "kernels", "serving", ""} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", exp}, &stdout, &stderr); code != 2 {
			t.Errorf("-exp %q exited %d, want 2", exp, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %q printed to stdout: %s", exp, stdout.String())
		}
		for _, name := range append(allOrder, "all") {
			if !strings.Contains(stderr.String(), name) {
				t.Errorf("-exp %q: error does not name %q: %s", exp, name, stderr.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table1", "-model", "alexnet"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown model exited %d, want 2", code)
	}
}
