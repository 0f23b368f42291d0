package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// The oracle: the optimiser's scalar loops as they stood before the blocked
// kernels, copied verbatim — a per-element state mask, a model-sized delta
// vector, the exchange and the local steps as separate traversals. Every
// entry point of the kernel-based optimiser is pinned to it bit for bit.

func oracleMask(ranges [][2]int, n int) []bool {
	if len(ranges) == 0 {
		return nil
	}
	state := make([]bool, n)
	for _, rg := range ranges {
		for i := rg[0]; i < rg[1] && i < n; i++ {
			state[i] = true
		}
	}
	return state
}

// oracleSnap is the velocity snap as a comparison: +0 for a zero or a
// subnormal, v itself for everything else, NaN included.
func oracleSnap(v float32) float32 {
	if v > -0x1p-126 && v < 0x1p-126 {
		return 0
	}
	return v
}

func oracleLocalStep(v, w, g []float32, lr, mu float32) {
	for i := range w {
		v[i] = oracleSnap(mu*v[i] - lr*g[i])
		w[i] += v[i]
	}
}

// unsnappedLocalStep is the velocity update as it was defined before the
// snap: what TestSnapInvisibleToParameters and the baseline pins compare
// against.
func unsnappedLocalStep(v, w, g []float32, lr, mu float32) {
	for i := range w {
		v[i] = mu*v[i] - lr*g[i]
		w[i] += v[i]
	}
}

func oracleExchange(ws [][]float32, z, zPrev, delta []float32, state []bool, alpha, mu float32) {
	lo, hi := 0, len(z)
	for i := lo; i < hi; i++ {
		delta[i] = 0
	}
	for _, w := range ws {
		if state == nil {
			for i := lo; i < hi; i++ {
				c := alpha * (w[i] - z[i])
				delta[i] += c
				w[i] -= c
			}
		} else {
			for i := lo; i < hi; i++ {
				if state[i] {
					continue
				}
				c := alpha * (w[i] - z[i])
				delta[i] += c
				w[i] -= c
			}
		}
	}
	for i := lo; i < hi; i++ {
		zOld := z[i]
		if state != nil && state[i] {
			var sum float32
			for j := range ws {
				sum += ws[j][i]
			}
			z[i] = sum / float32(len(ws))
			zPrev[i] = zOld
			continue
		}
		z[i] = zOld + delta[i] + mu*(zOld-zPrev[i])
		zPrev[i] = zOld
	}
}

func oracleContributeStep(w, g, out, v, z []float32, state []bool, alpha, lr, mu float32) {
	for i := range w {
		wi := w[i]
		if state == nil || !state[i] {
			c := alpha * (wi - z[i])
			out[i] = c
			wi -= c
		} else {
			out[i] = wi
		}
		v[i] = oracleSnap(mu*v[i] - lr*g[i])
		w[i] = wi + v[i]
	}
}

func oracleApplyContributions(corr [][]float32, z, zPrev []float32, state []bool, mu float32) {
	for i := range z {
		zOld := z[i]
		if state != nil && state[i] {
			var sum float32
			for j := range corr {
				sum += corr[j][i]
			}
			z[i] = sum / float32(len(corr))
			zPrev[i] = zOld
			continue
		}
		var delta float32
		for j := range corr {
			delta += corr[j][i]
		}
		z[i] = zOld + delta + mu*(zOld-zPrev[i])
		zPrev[i] = zOld
	}
}

func oracleDistApply(ref, zv, zp, sum []float32, st []bool, alphaG, n, mu float32, restart bool) {
	if restart {
		for i := range zv {
			zn := sum[i] / n
			zv[i] = zn
			zp[i] = zn
			if st == nil || !st[i] {
				ref[i] -= alphaG * (ref[i] - zn)
			}
		}
		return
	}
	for i := range zv {
		zOld := zv[i]
		if st != nil && st[i] {
			zv[i] = sum[i] / n
			zp[i] = zOld
			continue
		}
		ref[i] -= alphaG * (ref[i] - zOld)
		zv[i] = zOld + alphaG*(sum[i]-n*zOld) + mu*(zOld-zp[i])
		zp[i] = zOld
	}
}

// oracleSMA is the pre-kernel SMA: Step as exchange-then-local-steps.
type oracleSMA struct {
	cfg          SMAConfig
	alpha        float32
	z, zPrev, dl []float32
	vel          [][]float32
	state        []bool
	iter         int
	localStep    func(v, w, g []float32, lr, mu float32)
}

func newOracleSMA(cfg SMAConfig, w0 []float32, k int) *oracleSMA {
	if cfg.Tau < 1 {
		cfg.Tau = 1
	}
	o := &oracleSMA{
		cfg: cfg, alpha: 1 / float32(k),
		z: append([]float32(nil), w0...), zPrev: append([]float32(nil), w0...),
		dl: make([]float32, len(w0)), state: oracleMask(cfg.StateRanges, len(w0)),
		localStep: oracleLocalStep,
	}
	for j := 0; j < k; j++ {
		o.vel = append(o.vel, make([]float32, len(w0)))
	}
	return o
}

func (o *oracleSMA) step(ws, gs [][]float32) {
	o.iter++
	if o.iter%o.cfg.Tau == 0 {
		oracleExchange(ws, o.z, o.zPrev, o.dl, o.state, o.alpha, o.cfg.Momentum)
	}
	for j := range ws {
		o.localStep(o.vel[j], ws[j], gs[j], o.cfg.LearnRate, o.cfg.LocalMomentum)
	}
}

var oracleEdges = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	1e-40, -3e-39, math.MaxFloat32,
}

// oracleFill: mostly ordinary values, one in eight an IEEE corner, slices
// cut from offset off of their backing array so vectors start off 32-byte
// alignment.
func oracleFill(r *tensor.RNG, n, off int, scale float32) []float32 {
	s := make([]float32, n+off)[off:]
	for i := range s {
		if r.Intn(8) == 0 {
			s[i] = oracleEdges[r.Intn(len(oracleEdges))]
		} else {
			s[i] = float32(r.NormFloat64()) * scale
		}
	}
	return s
}

func oracleFills(r *tensor.RNG, k, n int, scale float32) [][]float32 {
	vs := make([][]float32, k)
	for j := range vs {
		vs[j] = oracleFill(r, n, j%3, scale)
	}
	return vs
}

func cloneVecs(vs [][]float32) [][]float32 {
	out := make([][]float32, len(vs))
	for j, v := range vs {
		out[j] = append([]float32(nil), v...)
	}
	return out
}

// bitsEqual demands identical bit patterns; a NaN may carry any payload
// (see tensor's smaBitsEqual: the payload of an operation on two different
// NaNs depends on operand order, which the compiler is free to choose).
func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
		if g != w && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: [%d] = %08x (%v), want %08x (%v)", name, i, g, got[i], w, want[i])
		}
	}
}

func vecsEqual(t *testing.T, name string, got, want [][]float32) {
	t.Helper()
	for j := range want {
		bitsEqual(t, fmt.Sprintf("%s[%d]", name, j), got[j], want[j])
	}
}

// oracleRanges returns state-range layouts for a model of n parameters:
// none; at the start, at the end, two adjacent, an empty one, one past the
// end, overlapping, out of order; and for the two benchmark models the
// network's own.
func oracleRanges(n int) [][][2]int {
	out := [][][2]int{nil}
	if n >= 8 {
		out = append(out, [][2]int{{n - 3, n + 5}, {0, 2}, {4, 4}, {2, 3}, {n / 2, n/2 + 2}, {n/2 + 1, n/2 + 3}})
	}
	switch n {
	case 6218:
		out = append(out, [][2]int{{100, 116}, {116, 132}, {3000, 3064}})
	case 45210:
		_, real := benchModel(nn.ResNet32)
		out = append(out, real)
	}
	return out
}

func oracleSizes() []int {
	ns := []int{6218, 45210}
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return ns
}

func TestStateRangeSegments(t *testing.T) {
	r := tensor.NewRNG(3)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(90)
		var ranges [][2]int
		for c := r.Intn(6); c > 0; c-- {
			lo := r.Intn(n + 1)
			ranges = append(ranges, [2]int{lo, lo + r.Intn(12)})
		}
		mask := oracleMask(ranges, n)
		st := newStateRanges(ranges, n)
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n+1-lo)
		pos := lo
		prevState, first := false, true
		for seg := st.segments(lo, hi); ; {
			a, b, state, ok := seg.next()
			if !ok {
				break
			}
			if a != pos || b <= a || b > hi {
				t.Fatalf("ranges %v [%d,%d): segment [%d,%d) after %d", ranges, lo, hi, a, b, pos)
			}
			if !first && state == prevState {
				t.Fatalf("ranges %v [%d,%d): two %v segments in a row at %d", ranges, lo, hi, state, a)
			}
			for i := a; i < b; i++ {
				if (mask != nil && mask[i]) != state {
					t.Fatalf("ranges %v [%d,%d): index %d in a state=%v segment", ranges, lo, hi, i, state)
				}
			}
			pos, prevState, first = b, state, false
		}
		if pos != hi {
			t.Fatalf("ranges %v [%d,%d): walk stopped at %d", ranges, lo, hi, pos)
		}
	}
}

// TestSMAMatchesScalarOracle drives Step, ContributeStep+ApplyContributions
// and LocalStep beside the oracle over every size, learner count, state
// layout, τ and kernel budget, three rounds each so velocities and z_prev
// take part, on inputs dense in IEEE corners. CI runs it a second time
// with CROSSBOW_NOSIMD=1, where the kernels are their scalar tails.
func TestSMAMatchesScalarOracle(t *testing.T) {
	defer tensor.SetWorkerBudget(tensor.WorkerBudget())
	for _, n := range oracleSizes() {
		for ri, ranges := range oracleRanges(n) {
			for k := 1; k <= 4; k++ {
				for _, tau := range []int{1, 2} {
					budget := 1 + (n+k+tau+ri)%3
					tensor.SetWorkerBudget(budget)
					name := fmt.Sprintf("n=%d ranges#%d k=%d tau=%d budget=%d", n, ri, k, tau, budget)
					smaOracleCase(t, name, n, ranges, k, tau)
				}
			}
		}
	}
}

// TestSMAMatchesScalarOracleSplit uses a model large enough for the walk
// to be split over kernel workers, at budgets 1, 2 and 3: the partition
// must not show in the bits.
func TestSMAMatchesScalarOracleSplit(t *testing.T) {
	defer tensor.SetWorkerBudget(tensor.WorkerBudget())
	const n = 2*smaGrain + 4099
	ranges := [][2]int{{0, 40}, {smaGrain - 7, smaGrain + 9}, {n - 64, n}}
	for budget := 1; budget <= 3; budget++ {
		tensor.SetWorkerBudget(budget)
		smaOracleCase(t, fmt.Sprintf("split budget=%d", budget), n, ranges, 2, 1)
	}
}

func smaOracleCase(t *testing.T, name string, n int, ranges [][2]int, k, tau int) {
	t.Helper()
	r := tensor.NewRNG(uint64(n*31 + k*7 + tau))
	cfg := SMAConfig{LearnRate: 0.1, Momentum: 0.9, LocalMomentum: 0.6, Tau: tau, StateRanges: ranges}
	w0 := oracleFill(r, n, 1, 1)

	// Lockstep Step against exchange-then-local-steps.
	s, o := NewSMA(cfg, w0, k), newOracleSMA(cfg, w0, k)
	ws := oracleFills(r, k, n, 1)
	ows := cloneVecs(ws)
	// The barrier-free pair runs the same rounds from the same start.
	f := NewSMA(cfg, w0, k)
	fws := cloneVecs(ws)
	corr := oracleFills(r, k, n, 1)
	for round := 0; round < 3; round++ {
		gs := oracleFills(r, k, n, 0.1)
		s.Step(ws, gs)
		o.step(ows, gs)
		at := fmt.Sprintf("%s round %d", name, round)
		vecsEqual(t, at+" Step w", ws, ows)
		vecsEqual(t, at+" Step vel", s.vel, o.vel)
		bitsEqual(t, at+" Step z", s.z, o.z)
		bitsEqual(t, at+" Step zPrev", s.zPrev, o.zPrev)

		if (round+1)%tau != 0 {
			for j := range fws {
				f.LocalStep(j, fws[j], gs[j])
			}
		} else {
			ocorr := cloneVecs(corr)
			pre := cloneVecs(fws)
			prev := cloneVecs(f.vel)
			for j := range fws {
				f.ContributeStep(j, fws[j], gs[j], corr[j])
				oracleContributeStep(pre[j], gs[j], ocorr[j], prev[j], f.z, oracleMask(ranges, n), f.alpha, cfg.LearnRate, cfg.LocalMomentum)
			}
			vecsEqual(t, at+" ContributeStep out", corr, ocorr)
			vecsEqual(t, at+" ContributeStep w", fws, pre)
			vecsEqual(t, at+" ContributeStep vel", f.vel, prev)
			oz, ozp := append([]float32(nil), f.z...), append([]float32(nil), f.zPrev...)
			f.ApplyContributions(corr)
			oracleApplyContributions(ocorr, oz, ozp, oracleMask(ranges, n), cfg.Momentum)
			bitsEqual(t, at+" ApplyContributions z", f.z, oz)
			bitsEqual(t, at+" ApplyContributions zPrev", f.zPrev, ozp)
		}
		// And the two schedulers agree with each other.
		vecsEqual(t, at+" FCFS w vs lockstep", fws, ws)
		bitsEqual(t, at+" FCFS z vs lockstep", f.z, s.z)
	}
}

// TestExchangeAndDistApplyMatchScalarOracle covers the inter-server fold,
// DistClusterSMA.apply, in its steady and Restart branches.
func TestExchangeAndDistApplyMatchScalarOracle(t *testing.T) {
	defer tensor.SetWorkerBudget(tensor.WorkerBudget())
	for _, n := range oracleSizes() {
		for ri, ranges := range oracleRanges(n) {
			budget := 1 + (n+ri)%3
			tensor.SetWorkerBudget(budget)
			name := fmt.Sprintf("n=%d ranges#%d budget=%d", n, ri, budget)
			r := tensor.NewRNG(uint64(n + 1000*ri))
			mask := oracleMask(ranges, n)

			for _, restart := range []bool{false, true} {
				for _, alphaG := range []float32{0, 0.3} {
					w0 := oracleFill(r, n, 1, 1)
					cfg := ClusterSMAConfig{SMAConfig: SMAConfig{Momentum: 0.9, StateRanges: ranges}, AlphaGlobal: alphaG}
					d := NewDistClusterSMA(cfg, w0, 1, nopExchanger{})
					copy(d.sma.z, oracleFill(r, n, 0, 1))
					copy(d.zPrev, oracleFill(r, n, 0, 1))
					copy(d.buf, oracleFill(r, n, 0, 3))
					oref, oz, ozp := append([]float32(nil), d.sma.z...), append([]float32(nil), d.z...), append([]float32(nil), d.zPrev...)
					d.apply(ExchangeRound{Participants: 3, Restart: restart})
					a := alphaG
					if a == 0 {
						a = 1 / float32(3)
					}
					oracleDistApply(oref, oz, ozp, d.buf, mask, a, 3, 0.9, restart)
					at := fmt.Sprintf("%s restart=%v alphaG=%v DistClusterSMA.apply", name, restart, alphaG)
					bitsEqual(t, at+" ref", d.sma.z, oref)
					bitsEqual(t, at+" z", d.z, oz)
					bitsEqual(t, at+" zPrev", d.zPrev, ozp)
					if d.Rounds() != 1 {
						t.Fatalf("%s: Rounds() = %d after one apply", at, d.Rounds())
					}
				}
			}
		}
	}
}

// TestOptimiserStepAllocs pins the lockstep step's allocation budget. For
// an optimiser without a range form the trainer declares one active learner
// around the whole Step and restores the count after it; that flip, a step
// that runs on the calling goroutine (any model up to smaGrain parameters,
// at any budget), and the sharded form the learners run for flat SMA
// allocate nothing. A step split over two workers costs what one
// ParallelFor fan-out costs.
func TestOptimiserStepAllocs(t *testing.T) {
	defer tensor.SetWorkerBudget(tensor.WorkerBudget())
	defer tensor.SetActiveLearners(tensor.SetActiveLearners(2))
	flipAndStep := func(s *SMA, ws, gs [][]float32) func() {
		return func() {
			prev := tensor.SetActiveLearners(1)
			s.Step(ws, gs)
			tensor.SetActiveLearners(prev)
		}
	}
	w0, state := benchModel(nn.ResNet32)
	s := NewSMA(benchSMAConfig(state), w0, 2)
	ws, gs := benchReplicas(w0, 2)
	for _, budget := range []int{1, 2} {
		tensor.SetWorkerBudget(budget)
		if a := testing.AllocsPerRun(20, flipAndStep(s, ws, gs)); a != 0 {
			t.Errorf("ResNet-32 step at budget %d: %v allocs, want 0", budget, a)
		}
		sharded := func() {
			s.BeginStep()
			for j := 0; j < 2; j++ {
				lo, hi := s.Shard(j, 2)
				s.StepRange(ws, gs, lo, hi)
			}
		}
		if a := testing.AllocsPerRun(20, sharded); a != 0 {
			t.Errorf("ResNet-32 sharded step at budget %d: %v allocs, want 0", budget, a)
		}
	}

	big := make([]float32, 2*smaGrain)
	s = NewSMA(benchSMAConfig(nil), big, 2)
	ws, gs = benchReplicas(big, 2)
	tensor.SetWorkerBudget(2)
	fanOut := testing.AllocsPerRun(20, func() {
		prev := tensor.SetActiveLearners(1)
		tensor.ParallelFor(len(big), smaGrain, func(lo, hi int) { big[lo] = 0 })
		tensor.SetActiveLearners(prev)
	})
	if a := testing.AllocsPerRun(20, flipAndStep(s, ws, gs)); a > fanOut {
		t.Errorf("split step: %v allocs, a bare two-worker ParallelFor costs %v", a, fanOut)
	}
}

// TestShardedStepMatchesStep: BeginStep followed by StepRange over every
// Shard, the shards taken in a shuffled order or all at once, is Step — bit
// for bit in z, z_prev, every replica and every velocity, over three rounds
// at τ 1 and 3 and at every learner count the shards are cut for. Models:
// ResNet-32 with its own state ranges, a synthetic one whose state ranges
// straddle every shard boundary of every k, and one smaller than a block
// (all shards but the last empty). CI repeats it under CROSSBOW_NOSIMD=1
// and CROSSBOW_NOAVX512=1, and under -race, where the concurrent arm checks
// that shards share no element.
func TestShardedStepMatchesStep(t *testing.T) {
	ks := []int{1, 2, 3, 4, 7}
	resnet, resnetState := benchModel(nn.ResNet32)
	const synthetic = 23*smaBlock + 517
	probe := NewSMA(SMAConfig{}, make([]float32, synthetic), 1)
	var straddling [][2]int
	for _, k := range ks {
		for j := 1; j < k; j++ {
			cut, _ := probe.Shard(j, k)
			straddling = append(straddling, [2]int{cut - 5, cut + 9})
		}
	}
	models := []struct {
		name  string
		n     int
		state [][2]int
	}{
		{"resnet32", len(resnet), resnetState},
		{"straddling", synthetic, straddling},
		{"sub-block", 100, [][2]int{{40, 60}}},
	}
	for _, m := range models {
		for _, k := range ks {
			for _, tau := range []int{1, 3} {
				name := fmt.Sprintf("%s k=%d tau=%d", m.name, k, tau)
				r := tensor.NewRNG(uint64(m.n + 13*k + tau))
				cfg := SMAConfig{LearnRate: 0.1, Momentum: 0.9, LocalMomentum: 0.6, Tau: tau, StateRanges: m.state}
				w0 := oracleFill(r, m.n, 0, 1)
				whole, sharded := NewSMA(cfg, w0, k), NewSMA(cfg, w0, k)
				ws := oracleFills(r, k, m.n, 1)
				sws := cloneVecs(ws)

				// The shards tile the model, cut at block multiples.
				for j, end := 0, 0; j < k; j++ {
					lo, hi := sharded.Shard(j, k)
					if lo != end || hi < lo || (j < k-1 && hi%smaBlock != 0) || (j == k-1 && hi != m.n) {
						t.Fatalf("%s: shard %d of %d is [%d, %d) after %d", name, j, k, lo, hi, end)
					}
					end = hi
				}

				for it := 0; it < 3*tau; it++ {
					gs := oracleFills(r, k, m.n, 0.1)
					whole.Step(ws, gs)
					sharded.BeginStep()
					order := make([]int, k)
					r.Perm(order)
					if it%2 == 0 {
						for _, j := range order {
							lo, hi := sharded.Shard(j, k)
							sharded.StepRange(sws, gs, lo, hi)
						}
					} else {
						var wg sync.WaitGroup
						for _, j := range order {
							lo, hi := sharded.Shard(j, k)
							wg.Add(1)
							go func() {
								defer wg.Done()
								sharded.StepRange(sws, gs, lo, hi)
							}()
						}
						wg.Wait()
					}
					at := fmt.Sprintf("%s iteration %d", name, it)
					vecsEqual(t, at+" w", sws, ws)
					vecsEqual(t, at+" vel", sharded.vel, whole.vel)
					bitsEqual(t, at+" z", sharded.z, whole.z)
					bitsEqual(t, at+" zPrev", sharded.zPrev, whole.zPrev)
					if sharded.Rounds() != whole.Rounds() {
						t.Fatalf("%s: %d rounds sharded, %d whole", at, sharded.Rounds(), whole.Rounds())
					}
				}
			}
		}
	}
}

func countSubnormal(v []float32) int {
	n := 0
	for _, x := range v {
		if b := math.Float32bits(x) & 0x7fffffff; b != 0 && b < 0x00800000 {
			n++
		}
	}
	return n
}

// TestSnapInvisibleToParameters runs train-lenet-fcfs's optimiser shape — 4
// replicas of 6 218 parameters — for 3 000 lockstep steps beside the scalar
// oracle with the velocity update as it was defined before the snap. From
// step 100 a third of the gradients are zero (dead units), so those
// velocities decay through the subnormal range: the oracle's park there,
// the kernels' are snapped to +0. No parameter can tell: every replica and
// z, z_prev stay bit-identical to the oracle's throughout, and at the end
// the oracle holds subnormal velocities where the kernels hold none.
func TestSnapInvisibleToParameters(t *testing.T) {
	const n, k, steps = 6218, 4, 3000
	r := tensor.NewRNG(24)
	w0 := make([]float32, n)
	for i := range w0 {
		w0[i] = float32(r.NormFloat64()) * 0.1
	}
	cfg := SMAConfig{LearnRate: 0.01, Momentum: 0.9, LocalMomentum: 0.9, Tau: 1, StateRanges: [][2]int{{100, 116}, {3000, 3064}}}
	s, o := NewSMA(cfg, w0, k), newOracleSMA(cfg, w0, k)
	o.localStep = unsnappedLocalStep
	ws, gs := make([][]float32, k), make([][]float32, k)
	for j := range ws {
		ws[j], gs[j] = append([]float32(nil), w0...), make([]float32, n)
	}
	ows := cloneVecs(ws)
	for step := 0; step < steps; step++ {
		for j := range gs {
			for i := range gs[j] {
				// A noisy pull towards the origin keeps the run bounded.
				gs[j][i] = 0.05*ws[j][i] + float32(r.NormFloat64())*0.01
				if step >= 100 && i%3 == 0 {
					gs[j][i] = 0
				}
			}
		}
		s.Step(ws, gs)
		o.step(ows, gs)
		if step%500 == 499 || step == steps-1 {
			at := fmt.Sprintf("step %d", step)
			vecsEqual(t, at+" w", ws, ows)
			bitsEqual(t, at+" z", s.z, o.z)
			bitsEqual(t, at+" zPrev", s.zPrev, o.zPrev)
		}
	}
	parked := 0
	for j := range s.vel {
		if c := countSubnormal(s.vel[j]); c != 0 {
			t.Fatalf("replica %d: %d subnormal velocities after %d steps", j, c, steps)
		}
		parked += countSubnormal(o.vel[j])
	}
	if parked < k*n/4 {
		t.Fatalf("only %d of the unsnapped definition's velocities are subnormal: the run never reached the case it is about", parked)
	}
}

// TestBaselinesShareVelocityKernel pins the three optimisers that used to
// carry their own copy of the velocity loop — S-SGD, EA-SGD and the
// hierarchical SMA between synchronisations — to that loop, on inputs that
// keep every velocity normal, where the snap changes nothing.
func TestBaselinesShareVelocityKernel(t *testing.T) {
	const n, k = 133, 3
	r := tensor.NewRNG(9)
	fill := func() []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(r.NormFloat64()) + 3
		}
		return v
	}
	w0 := fill()
	const lr, mu = float32(0.05), float32(0.7)

	ssgd := NewSSGD(lr, mu, w0)
	ow, ov, agg := append([]float32(nil), w0...), make([]float32, n), make([]float32, n)
	ea := NewEASGD(lr, 0, 4, k, w0)
	ea.LocalMomentum = mu
	hier := NewHierarchicalSMA(SMAConfig{LearnRate: lr, LocalMomentum: mu, Momentum: 0.9, Tau: 4}, w0, [][]int{{0, 1}, {2}})
	ws := [][]float32{fill(), fill(), fill()}
	eaW, hierW, refW := cloneVecs(ws), cloneVecs(ws), cloneVecs(ws)
	refV := [][]float32{make([]float32, n), make([]float32, n), make([]float32, n)}
	for step := 0; step < 3; step++ { // below τ: local steps only
		gs := [][]float32{fill(), fill(), fill()}
		ssgd.Step(ws, gs)
		tensor.AverageInto(agg, gs...)
		unsnappedLocalStep(ov, ow, agg, lr, mu)
		bitsEqual(t, fmt.Sprintf("SSGD step %d", step), ssgd.Average(), ow)

		ea.Step(eaW, gs)
		hier.Step(hierW, gs)
		for j := range refW {
			unsnappedLocalStep(refV[j], refW[j], gs[j], lr, mu)
		}
		vecsEqual(t, fmt.Sprintf("EASGD step %d", step), eaW, refW)
		vecsEqual(t, fmt.Sprintf("HierarchicalSMA step %d", step), hierW, refW)
	}
}
