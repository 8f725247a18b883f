package main

import (
	"sync"
	"time"
)

// The reference unit is a fixed piece of work that belongs to the
// benchmark, not to the engine: P goroutines each fold the same 2^20
// pseudo-random keys into a 4,096-slot table (multiply, shift, add — the
// shape of a hash-aggregation inner loop). The runner interleaves
// reference units with the queries it times and reports every timed
// end-to-end metric relative to how fast the units ran in that round.
//
// Why: on the 2-vCPU reference box the speed of a vCPU drifts by 10 %
// from one calm minute to the next, and for tens of minutes at a time the
// hypervisor takes the vCPUs away for more than half of the time they ask
// for; the same query then reads 31 ms in one block and 170 ms in the
// next, and no quantile of raw wall times repeats within any useful bound.
// The lower quartile of a round's unit times tracks the drift — it skips
// the units a collector cycle left over from the query slowed down, and
// the ones the hypervisor interrupted — and the theft itself is in
// /proc/stat (cpuJiffies). The raw figures are still reported
// (run.rows_per_s_raw, run.ref_slowdown, run.steal_share).
const (
	refKeys   = 1 << 18 // keys per goroutine, folded refPasses times per unit
	refPasses = 4
	refSlots  = 4096

	// refNominalWallNS and refNominalCPUNS anchor the ratio to real time:
	// the lower quartile of a unit's wall time, and of its CPU time per
	// goroutine, on the reference box with nothing else running. With the
	// box at that speed a normalised figure equals the raw one.
	refNominalWallNS = 0.75e6
	refNominalCPUNS  = 0.70e6
)

// reference owns the P goroutines that run units. They park on their
// start channels between units and exit when stop closes those.
type reference struct {
	start []chan struct{}
	done  chan struct{}
	sums  []uint64 // one slot per goroutine; keeps the folds observable
	wg    sync.WaitGroup
}

func newReference(p int) *reference {
	r := &reference{done: make(chan struct{}, p), sums: make([]uint64, p)}
	for g := 0; g < p; g++ {
		start := make(chan struct{})
		r.start = append(r.start, start)
		keys := make([]uint32, refKeys)
		x := uint32(2463534242 + g)
		for i := range keys {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			keys[i] = x
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			var tab [refSlots]uint64
			for range start {
				for pass := 0; pass < refPasses; pass++ {
					for _, k := range keys {
						h := uint64(k) * 0x9e3779b97f4a7c15
						tab[h>>52] += h
					}
				}
				r.done <- struct{}{}
			}
			r.sums[g] = tab[0]
		}()
	}
	for i := 0; i < 8; i++ { // touch the keys before anything is timed
		r.unit()
	}
	return r
}

// unit runs one reference unit on all P goroutines and waits for it.
func (r *reference) unit() {
	for _, c := range r.start {
		c <- struct{}{}
	}
	for range r.start {
		<-r.done
	}
}

func (r *reference) stop() {
	for _, c := range r.start {
		close(c)
	}
	r.wg.Wait()
}

// refMeter times the reference units run next to some timed work, one
// entry per unit.
type refMeter struct{ wallNS, cpuNS []float64 }

func newRefMeter(units int) refMeter {
	return refMeter{wallNS: make([]float64, 0, units), cpuNS: make([]float64, 0, units)}
}

func (m *refMeter) run(ref *reference, n int) {
	for i := 0; i < n; i++ {
		c0, t0 := cpuNS(), time.Now()
		ref.unit()
		m.wallNS = append(m.wallNS, float64(time.Since(t0)))
		m.cpuNS = append(m.cpuNS, float64(cpuNS()-c0))
	}
}

// slowdown is how much slower than nominal the units ran: in wall time,
// and in CPU time per goroutine. Timed work measured next to them is
// divided by it.
func (m refMeter) slowdown(p int) (wall, cpu float64) {
	return percentile(m.wallNS, 0.25) / refNominalWallNS,
		percentile(m.cpuNS, 0.25) / float64(p) / refNominalCPUNS
}
