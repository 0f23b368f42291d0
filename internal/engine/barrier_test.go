package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestBarrierSerialSection drives the barrier through 10⁴ generations at
// several party counts, on the machine's processors and on one, with the
// spin budget the runtime uses and with none (every wait parks). The serial
// section must run exactly once per generation, after every arrival of that
// generation and before any release from it. The arrival marks and the
// section count are plain variables that the parties and the section hand
// back and forth through the barrier alone, so under -race the test also
// checks the ordering the runtime relies on. Spinning at k = 5 on one
// processor finishes only because a spinning waiter yields.
func TestBarrierSerialSection(t *testing.T) {
	const gens = 10000
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		for _, k := range []int{1, 2, 3, 5} {
			for _, spins := range []int{barrierSpins, 0} {
				barrierCase(t, procs, k, spins, gens)
			}
		}
	}
}

func barrierCase(t *testing.T, procs, k, spins, gens int) {
	t.Run(fmt.Sprintf("procs=%d/k=%d/spins=%d", procs, k, spins), func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		b := newBarrier(k)
		b.spins = spins
		arrived := make([]int, k) // arrived[j]: generations party j has arrived for
		serial := 0               // serial sections run
		var wg sync.WaitGroup
		for j := 0; j < k; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				for g := 1; g <= gens; g++ {
					arrived[j] = g
					b.await(func() {
						serial++
						if serial != g {
							t.Errorf("generation %d: serial section ran %d times so far", g, serial)
						}
						for p, a := range arrived {
							if a != g {
								t.Errorf("generation %d: section ran with party %d at %d", g, p, a)
							}
						}
					})
					if serial != g {
						t.Errorf("party %d released from generation %d with %d sections run", j, g, serial)
					}
				}
			}(j)
		}
		wg.Wait()
		if serial != gens {
			t.Fatalf("%d serial sections for %d generations", serial, gens)
		}
	})
}

// BenchmarkBarrierRound times one lockstep-shaped generation pair (two
// crossings, a serial section on each) with nothing between the crossings:
// what the barrier itself costs a round.
func BenchmarkBarrierRound(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			bar := newBarrier(k)
			n := 0
			fn := func() { n++ }
			var wg sync.WaitGroup
			b.ResetTimer()
			for j := 0; j < k; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						bar.await(fn)
						bar.await(fn)
					}
				}()
			}
			wg.Wait()
			if n != 2*b.N {
				b.Fatalf("%d serial sections, want %d", n, 2*b.N)
			}
		})
	}
}
