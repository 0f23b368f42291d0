package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the benchmark itself, around the closures it hands
// to the layers (see traced.go) — nothing inside the program is
// instrumented. Each goroutine that runs wrapped closures owns one lane: a
// preallocated span slice it alone appends to, so recording takes two clock
// reads and no lock or allocation. Lanes are merged and written to
// trace.json when the run ends.

type spanKind uint8

const (
	spEpoch spanKind = iota
	spEval
	spAcquire
	spTask
	spRelease
	spStep
	spLocalStep
	spContribute
	spApply
	spPublish
	spAllReduce // synchronous exchange, or the Wait half of an overlapped one
	spBeginAllReduce
	spRequest
	spUpdateModel
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"epoch", "core.eval", "memplan.acquire_task", "nn.task", "memplan.release_task",
	"core.step", "core.local_step", "core.contribute", "core.apply", "core.publish",
	"transport.allreduce", "transport.begin_allreduce", "serve.request", "serve.update_model",
}

// span is one timed interval. parent indexes the main lane of the span's
// group (the epoch a task ran in, the step an exchange ran in); -1 for roots.
type span struct {
	kind       spanKind
	id         int16 // learner index, or request phase
	parent     int32
	start, end int64 // ns since tracer.t0
}

func (s span) dur() float64 { return float64(s.end - s.start) }

// lane is a single-writer span buffer. Writers are either one goroutine, or
// closures the runtime serialises itself (FCFS Apply/Publish run on whichever
// learner completes a round, inside the round's critical section).
type lane struct {
	name    string
	rank    int
	group   int // lanes of one rank in one phase share a group; parents index the group's first lane
	t0      time.Time
	spans   []span
	dropped int // spans past the preallocated capacity (never grown mid-run)
}

func (l *lane) begin(kind spanKind, id int, parent int) int {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{kind: kind, id: int16(id), parent: int32(parent), start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *lane) end(i int) {
	if i >= 0 {
		l.spans[i].end = int64(time.Since(l.t0))
	}
}

// durations returns the durations in µs of every span of one kind.
func (l *lane) durations(kind spanKind) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.kind == kind {
			out = append(out, s.dur()/1e3)
		}
	}
	return out
}

func (l *lane) of(kind spanKind) []span {
	var out []span
	for _, s := range l.spans {
		if s.kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// tracer owns the lanes of one run.
type tracer struct {
	t0     time.Time
	lanes  []*lane
	groups int
}

func (t *tracer) newGroup() int { t.groups++; return t.groups }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane preallocates a lane for capacity spans. Call before the goroutines
// that write it start.
func (t *tracer) lane(name string, rank, group, capacity int) *lane {
	l := &lane{name: name, rank: rank, group: group, t0: t.t0, spans: make([]span, 0, capacity)}
	t.lanes = append(t.lanes, l)
	return l
}

func (t *tracer) dropped() int {
	n := 0
	for _, l := range t.lanes {
		n += l.dropped
	}
	return n
}

type jsonSpan struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Lane    string  `json:"lane"`
	Rank    int     `json:"rank"`
	Learner int     `json:"learner"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// maxDumpPerLane bounds what write dumps of one lane: the scheduling-bound
// workload records a quarter of a million spans, and the first few epochs
// show everything the rest do.
const maxDumpPerLane = 20000

// write dumps the lanes (the earliest maxDumpPerLane spans of each) as one
// JSON array. Span ids are global; parent is the id of the enclosing span in
// the group's main lane, -1 for roots or when the parent was not dumped.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	offset := make([]int, len(t.lanes))
	mainOf := map[int]int{} // group -> offset of its main lane
	n := 0
	for i, l := range t.lanes {
		offset[i] = n
		if _, ok := mainOf[l.group]; !ok {
			mainOf[l.group] = n
		}
		n += min(len(l.spans), maxDumpPerLane)
	}
	enc := json.NewEncoder(w)
	fmt.Fprintln(w, "[")
	first := true
	for i, l := range t.lanes {
		for j, s := range l.spans[:min(len(l.spans), maxDumpPerLane)] {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			parent := -1
			if s.parent >= 0 && s.parent < maxDumpPerLane {
				parent = mainOf[l.group] + int(s.parent)
			}
			if err := enc.Encode(jsonSpan{
				ID: offset[i] + j, Name: spanNames[s.kind], Lane: l.name, Rank: l.rank,
				Learner: int(s.id), Parent: parent,
				StartUS: float64(s.start) / 1e3, EndUS: float64(s.end) / 1e3,
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
