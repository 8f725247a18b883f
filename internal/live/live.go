// Package live is a real parallel aggregation engine: the same algorithms
// as internal/core, executed with actual goroutines and channels on the
// host machine instead of on the simulated cluster. Workers play the role
// of nodes, channel exchanges the role of the interconnect, and a bounded
// hash table the role of the memory budget; overflow "spills" are buffered
// in memory (a real system would spool them to disk).
//
// The engine exists for two reasons. First, it is the artifact a user of
// this library most likely wants: a fast multicore GROUP BY. Second, it
// demonstrates the paper's central claim outside the simulator — the
// adaptive algorithms' per-worker switching works with real concurrency,
// real channel backpressure and real memory pressure, with no global
// synchronization.
//
// Each worker runs two goroutines, mirroring the Gamma operator split: a
// scan side that aggregates or routes its partition, and a merge side that
// owns the groups hashing to the worker and consumes the exchange from the
// moment the query starts (so bounded exchange channels provide
// backpressure without deadlock).
//
// The data plane is allocation-free in steady state: worker tables are
// internal/aggtable open-addressing tables (inline update, no per-tuple
// map traffic), and exchange batches are sync.Pool-recycled — the merge
// side returns each batch to the pool after folding it, so after warm-up
// the scan sides append into recycled buffers instead of allocating.
package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/obs"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
)

// Algorithm selects the parallel strategy. The disk-centric members of the
// paper's lineup (C-2P's coordinator and the Sampling front-end) are
// omitted: with the relation already in memory, sampling saves nothing and
// a centralized merge is strictly worse than the parallel one.
type Algorithm int

const (
	// TwoPhase: each worker aggregates its partition locally, then the
	// partials are hash-partitioned and merged in parallel.
	TwoPhase Algorithm = iota
	// Repartitioning: raw tuples are hash-partitioned first; each worker
	// aggregates only the groups it owns.
	Repartitioning
	// AdaptiveTwoPhase: start as TwoPhase; a worker whose local table
	// fills flushes its partials and repartitions the rest raw.
	AdaptiveTwoPhase
	// AdaptiveRepartitioning: start as Repartitioning; a worker that sees
	// too few distinct groups in its first InitSeg tuples raises a shared
	// flag and every worker falls back to the AdaptiveTwoPhase strategy.
	AdaptiveRepartitioning
	// Shared: every worker folds its partition into ONE striped concurrent
	// table (internal/aggtable.Shared) through a small private front table —
	// the paper's local phase with the shared table as its overflow: the
	// front keeps the first keys it sees (and is given up if they turn out
	// cold), its misses are batched into the shared table, and it is merged
	// in when the scan ends. There is no exchange and the merge phase is one
	// pour. This is the 2025 counterpoint to the paper's partitioned designs
	// ("Global Hash Tables Strike Back!"): no second phase, no partial
	// traffic, lock traffic only for what the fronts miss. The TableEntries
	// budget is global — TableEntries×Workers entries, fronts included.
	Shared
	// AdaptiveShared: start as Shared; a worker that sees the shared
	// table refuse a tuple (bound pressure) or more than SwitchRatio of
	// its last InitSeg shared-table folds contend on a stripe lock raises
	// a flag; every worker then empties its front into the shared table and
	// runs the AdaptiveTwoPhase strategy on the rest of its partition. The
	// shared contents are poured once at the end over the exchanged results.
	AdaptiveShared
)

// String returns the paper's abbreviation.
func (a Algorithm) String() string {
	switch a {
	case TwoPhase:
		return "2P"
	case Repartitioning:
		return "Rep"
	case AdaptiveTwoPhase:
		return "A-2P"
	case AdaptiveRepartitioning:
		return "A-Rep"
	case Shared:
		return "Shared"
	case AdaptiveShared:
		return "A-Shared"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists the implemented strategies.
func Algorithms() []Algorithm {
	return []Algorithm{TwoPhase, Repartitioning, AdaptiveTwoPhase, AdaptiveRepartitioning, Shared, AdaptiveShared}
}

// Config tunes the engine. The zero value is usable: GOMAXPROCS workers,
// unbounded tables (no adaptive behaviour), 4096-tuple batches.
type Config struct {
	// Workers is the number of parallel workers (paper: nodes). Default:
	// runtime.GOMAXPROCS(0).
	Workers int

	// TableEntries bounds each worker's scan-side local hash table only,
	// triggering the overflow behaviour of the chosen algorithm (spill
	// passes for TwoPhase, the switch for AdaptiveTwoPhase); a merge side
	// holds every group its worker owns. 0 means unbounded. The shared algorithms
	// pool it: a front takes at most a quarter of a share, the rest bounds the table.
	TableEntries int

	// Batch is the number of tuples or partials per exchanged message.
	// Default 4096.
	Batch int

	// InitSeg and SwitchRatio drive AdaptiveRepartitioning's fallback,
	// with the same meaning as core.Options. Defaults: 4096 and 0.1.
	// AdaptiveShared reuses them as its contention window: a worker that
	// sees more than SwitchRatio×InitSeg contended folds among InitSeg
	// consecutive shared-table updates falls back to two-phase. Tuples its
	// front absorbs take no lock and are not in the window.
	InitSeg     int
	SwitchRatio float64

	// SharedStripes is the stripe count of the Shared/AdaptiveShared
	// concurrent table (rounded up to a power of two; 0 picks the
	// aggtable default). More stripes mean fewer lock collisions among
	// the tuples the fronts miss, and a bigger empty-table footprint.
	SharedStripes int

	// SpillToDisk spools TwoPhase overflow to real temporary files instead
	// of an in-memory buffer, making the TableEntries bound a true memory
	// bound. SpillDir selects the directory ("" = the OS temp dir).
	SpillToDisk bool
	SpillDir    string

	// ScalarPath runs the per-tuple data plane the engine used before the
	// columnar batch path existed: tuple-at-a-time folds, row-major
	// exchange batches, one stripe-lock acquisition per shared fold. It
	// exists as a differential-testing oracle. Measured once, on one vCPU
	// (EXPERIMENTS.md §BENCH_pr10): the batch path ran at up to 3.3× the
	// scalar rows/s for Shared/A-Shared at selectivity 0.001 and at
	// 0.78–1.17× for 2P/A-2P. Results are identical either way.
	ScalarPath bool

	// BaselineMapTables runs every worker table on the builtin-map
	// implementation the engine used before internal/aggtable existed.
	// It exists only as a differential-testing oracle. Measured once
	// (EXPERIMENTS.md §BENCH_pr5): the open-addressing table ran at
	// 1.3–2.7× the map's rows/s. Results are identical either way.
	BaselineMapTables bool

	// Obs, when non-nil, receives per-worker counters (rows, routed
	// tuples, partials, spills, groups, merge fan-in) and whole-run
	// throughput after the aggregation completes.
	Obs *obs.Registry

	// Tracer, when non-nil, records a scan and a merge span per worker.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 4096
	}
	if c.InitSeg <= 0 {
		c.InitSeg = 4096
	}
	if c.SwitchRatio <= 0 {
		c.SwitchRatio = 0.1
	}
	return c
}

// WorkerMetrics records one worker's activity.
type WorkerMetrics struct {
	Scanned      int64 // tuples this worker's scan side processed
	Routed       int64 // raw tuples shipped to other workers
	PartialsSent int64 // partial aggregates shipped
	Spilled      int64 // tuples that left the bounded table (memory or disk); Shared: refused at the global bound
	Absorbed     int64 // tuples a shared-mode worker's front folded without reaching the shared table
	GroupsOut    int64 // result groups this worker's merge side produced
	FanIn        int64 // distinct scan sides that fed this worker's merge side
	TableOcc     int64 // high-water occupancy of the scan side's bounded table, permille; the merge table has no bound to report against
	Switched     bool  // the adaptive switch fired
}

// Result is the outcome of one parallel aggregation.
type Result struct {
	Groups    map[tuple.Key]tuple.AggState
	Switched  int // workers that changed strategy mid-run
	PerWorker []WorkerMetrics
}

// groupTable is the bounded aggregation table a worker's scan and merge
// sides fold into: the open-addressing internal/aggtable.Table by
// default, or the builtin-map baseline under Config.BaselineMapTables.
// Update/Merge return false when the key is absent and the table is at
// its bound; Drain empties the table in ascending key order; Each visits
// every group once in no particular order and leaves the table as it is.
type groupTable interface {
	UpdateRaw(tuple.Tuple) bool
	MergePartial(tuple.Partial) bool
	UpdateBatch(*tuple.Batch, []int) []int
	MergeBatch(*tuple.PartialBatch, []int) []int
	Len() int
	Drain() []tuple.Partial
	Each(func(tuple.Key, tuple.AggState))
	OccupancyPermille() int
}

// tableFactory picks the groupTable implementation once per run.
func (c Config) tableFactory() func(bound int) groupTable {
	if c.BaselineMapTables {
		return func(bound int) groupTable { return newMapTable(bound) }
	}
	return func(bound int) groupTable { return aggtable.New(bound) }
}

// rawBatch and partBatch are pooled row-major exchange buffers (the
// scalar path); colRawBatch and colPartBatch their columnar twins (the
// batch path). The holder structs travel through the channels by pointer
// so the merge side can hand the same allocation back to the pool after
// folding it.
type rawBatch struct{ ts []tuple.Tuple }
type partBatch struct{ ps []tuple.Partial }
type colRawBatch struct{ b tuple.Batch }
type colPartBatch struct{ pb tuple.PartialBatch }

// exchangePools recycles exchange batches for one run. Pools are per-run,
// not global, so every pooled buffer has exactly cfg.Batch capacity and
// the allocations die with the run.
type exchangePools struct {
	raw     sync.Pool
	part    sync.Pool
	colRaw  sync.Pool
	colPart sync.Pool
}

func newExchangePools(batch int) *exchangePools {
	return &exchangePools{
		raw: sync.Pool{New: func() any {
			return &rawBatch{ts: make([]tuple.Tuple, 0, batch)}
		}},
		part: sync.Pool{New: func() any {
			return &partBatch{ps: make([]tuple.Partial, 0, batch)}
		}},
		colRaw: sync.Pool{New: func() any {
			return &colRawBatch{b: tuple.Batch{
				Keys: make([]tuple.Key, 0, batch),
				Vals: make([]int64, 0, batch),
			}}
		}},
		colPart: sync.Pool{New: func() any {
			return &colPartBatch{pb: tuple.PartialBatch{
				Keys:   make([]tuple.Key, 0, batch),
				Counts: make([]int64, 0, batch),
				Sums:   make([]int64, 0, batch),
				SumSqs: make([]int64, 0, batch),
				Mins:   make([]int64, 0, batch),
				Maxs:   make([]int64, 0, batch),
			}}
		}},
	}
}

func (p *exchangePools) getRaw() *rawBatch {
	b := p.raw.Get().(*rawBatch)
	b.ts = b.ts[:0]
	return b
}

func (p *exchangePools) getPart() *partBatch {
	b := p.part.Get().(*partBatch)
	b.ps = b.ps[:0]
	return b
}

func (p *exchangePools) getColRaw() *colRawBatch {
	b := p.colRaw.Get().(*colRawBatch)
	b.b.Reset()
	return b
}

func (p *exchangePools) getColPart() *colPartBatch {
	b := p.colPart.Get().(*colPartBatch)
	b.pb.Reset()
	return b
}

// message is one exchange batch between workers. At most one of
// raw/part/craw/cpart is non-nil; the receiver owns the batch and must
// return it to the pool once folded.
type message struct {
	src   int // sending worker, for merge fan-in accounting
	raw   *rawBatch
	part  *partBatch
	craw  *colRawBatch
	cpart *colPartBatch
}

// Aggregate runs alg over the tuples with cfg.Workers parallel workers and
// returns the merged groups. The input slice is read-only; it is sliced
// into one contiguous partition per worker.
func Aggregate(cfg Config, tuples []tuple.Tuple, alg Algorithm) (*Result, error) {
	cfg = cfg.withDefaults()
	return AggregatePartitioned(cfg, partition(tuples, cfg.Workers), alg)
}

// AggregatePartitioned is Aggregate with caller-controlled placement: one
// input slice per worker (len(parts) overrides cfg.Workers). Use it to
// reproduce the paper's skew scenarios on the live engine.
func AggregatePartitioned(cfg Config, parts [][]tuple.Tuple, alg Algorithm) (*Result, error) {
	cfg = cfg.withDefaults()
	w := len(parts)
	if w == 0 {
		return &Result{Groups: map[tuple.Key]tuple.AggState{}}, nil
	}
	cfg.Workers = w
	switch alg {
	case TwoPhase, Repartitioning, AdaptiveTwoPhase, AdaptiveRepartitioning, Shared, AdaptiveShared:
	default:
		return nil, fmt.Errorf("live: unknown algorithm %v", alg)
	}

	// The shared algorithms fold into one concurrent table. Its bound is
	// the global equivalent of the per-worker budget: TableEntries
	// entries per worker, pooled, less what the workers' fronts hold.
	var shared *aggtable.Shared
	if alg == Shared || alg == AdaptiveShared {
		_, bound := cfg.sharedBudget()
		shared = aggtable.NewShared(bound, cfg.SharedStripes)
	}

	// Inbox capacity 2*w: every scan side can have one in-flight batch
	// per destination (w total across all inboxes) plus one more being
	// built, while the merge sides drain from the moment the query
	// starts. A scan side blocked on a full inbox therefore always has a
	// running consumer on the other end — its own merge side never stops
	// consuming — so the A-2P mass re-route after a switch cannot
	// deadlock; see TestBackpressureCannotDeadlockA2P.
	inboxes := make([]chan message, w)
	for i := range inboxes {
		inboxes[i] = make(chan message, 2*w)
	}
	pools := newExchangePools(cfg.Batch)
	var scanners sync.WaitGroup
	scanners.Add(w)
	go func() {
		// Once every scan side is done, no more exchange traffic can
		// appear: let the merge sides drain and finish.
		scanners.Wait()
		for _, ch := range inboxes {
			close(ch)
		}
	}()

	owned := make([]groupTable, w) // each merge side's table of the groups it owns
	metrics := make([]WorkerMetrics, w)
	switched := make([]bool, w)
	errs := make([]error, w)
	var fallback atomic.Bool // ARep's broadcast "end-of-phase" flag
	newTable := cfg.tableFactory()

	start := time.Now()
	var all sync.WaitGroup
	workers := make([]*worker, w)
	for i := 0; i < w; i++ {
		i := i
		wk := &worker{id: i, cfg: cfg, alg: alg, inboxes: inboxes,
			fallback: &fallback, m: &metrics[i], pools: pools, newTable: newTable,
			shared: shared}
		if shared != nil {
			wk.sharedOv = aggtable.New(0)
		}
		workers[i] = wk
		all.Add(2)
		go func() {
			defer all.Done()
			defer scanners.Done()
			span := cfg.Tracer.Begin(i, "scan")
			switched[i], errs[i] = wk.scanSide(parts[i])
			span.End(fmt.Sprintf("%d tuples, switched=%v", len(parts[i]), switched[i]))
		}()
		go func() {
			defer all.Done()
			span := cfg.Tracer.Begin(i, "merge")
			owned[i] = wk.mergeSide(inboxes[i])
			metrics[i].GroupsOut = int64(owned[i].Len())
			span.End(fmt.Sprintf("%d groups, fan-in %d", owned[i].Len(), metrics[i].FanIn))
		}()
	}
	all.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// The merge phase of the shared algorithms: one pour, unordered like the
	// map it fills, which is made for all of it. Keys can legitimately coexist
	// with exchanged results (A-Shared groups split across the pre- and
	// post-switch phases) and with the overflow tables plain Shared falls back
	// to at its bound, so these fold with Merge instead of the duplicate check.
	extra := 0
	if shared != nil {
		extra = shared.Len()
		for _, wk := range workers {
			extra += wk.sharedOv.Len()
		}
	}
	merged, err := assemble(owned, extra)
	if err != nil {
		return nil, err
	}
	if shared != nil {
		pour := func(k tuple.Key, s tuple.AggState) { mergeGroup(merged, k, s) }
		shared.Each(pour)
		for _, wk := range workers {
			wk.sharedOv.Each(pour)
		}
	}
	res := &Result{Groups: merged, PerWorker: metrics}
	for i, sw := range switched {
		if sw {
			res.Switched++
			res.PerWorker[i].Switched = true
		}
	}
	publishObs(cfg.Obs, metrics, elapsed)
	return res, nil
}

// assemble pours the merge sides' tables into the result map, one assign
// per group and no order imposed: a map keeps none. Key.Dest partitions
// the key space, so the tables are disjoint and the map must end up with
// the sum of their sizes; if not, the cold path names the shared group.
// extra is room for the groups the caller pours in afterwards.
func assemble(owned []groupTable, extra int) (map[tuple.Key]tuple.AggState, error) {
	total := 0
	for _, tab := range owned {
		total += tab.Len()
	}
	merged := make(map[tuple.Key]tuple.AggState, total+extra)
	for _, tab := range owned {
		tab.Each(func(k tuple.Key, s tuple.AggState) { merged[k] = s })
	}
	if len(merged) == total {
		return merged, nil
	}
	clear(merged)
	var err error
	for wi, tab := range owned {
		tab.Each(func(k tuple.Key, s tuple.AggState) {
			if _, dup := merged[k]; dup && err == nil {
				err = fmt.Errorf("live: group %d produced by two workers (second: %d)", k, wi)
			}
			merged[k] = s
		})
	}
	return nil, err
}

// mergeGroup folds one group's partial state into the final result map.
func mergeGroup(m map[tuple.Key]tuple.AggState, k tuple.Key, s tuple.AggState) {
	if have, ok := m[k]; ok {
		s.Merge(have)
	}
	m[k] = s
}

// partition slices tuples into w near-equal contiguous parts.
func partition(tuples []tuple.Tuple, w int) [][]tuple.Tuple {
	parts := make([][]tuple.Tuple, w)
	per := len(tuples) / w
	rem := len(tuples) % w
	off := 0
	for i := 0; i < w; i++ {
		n := per
		if i < rem {
			n++
		}
		parts[i] = tuples[off : off+n]
		off += n
	}
	return parts
}

// worker is one parallel participant.
type worker struct {
	id       int
	cfg      Config
	alg      Algorithm
	inboxes  []chan message
	fallback *atomic.Bool
	m        *WorkerMetrics
	pools    *exchangePools
	newTable func(bound int) groupTable

	// shared is the one concurrent table every worker folds into under
	// the Shared/AdaptiveShared algorithms (nil otherwise). sharedOv is
	// this worker's private overflow table for what plain Shared could
	// not absorb at the bound; the scan side fills it, the coordinator
	// pours it out after every worker has finished.
	shared   *aggtable.Shared
	sharedOv *aggtable.Table

	// The batch path's shared mode (sharedChunk): front is the bounded private
	// table every chunk folds into first (nil when the budget has no room for
	// one, or once a chunk found it cold), miss the tuples it refused, on their
	// way to the shared table, bounced the indexes that table refused in its
	// turn, left those entries, AdaptiveShared's, on their way to the exchange.
	//
	//aggvet:owner scan
	front *aggtable.Table
	//aggvet:owner scan
	miss tuple.Batch
	//aggvet:owner scan
	bounced []int
	//aggvet:owner scan
	left []tuple.Partial

	// Contention-window accounting for AdaptiveShared, scan-side only.
	sharedSeen      int
	sharedContended int

	// Pending outbound batches, owned by the scan goroutine: the merge
	// side must never touch them (it receives full batches over the
	// inbox channels instead).
	//
	//aggvet:owner scan
	outRaw []*rawBatch
	//aggvet:owner scan
	outPart []*partBatch
	//aggvet:owner scan
	outRawC []*colRawBatch
	//aggvet:owner scan
	outPartC []*colPartBatch

	// Batch-path scan scratch: the columnar staging batch the scan side
	// folds chunks through, the reusable refusal index list, and the shared
	// table's partition scratch. All reach 0 allocs/op after the first chunk.
	//
	//aggvet:owner scan
	scanB tuple.Batch
	//aggvet:owner scan
	refused []int
	//aggvet:owner scan
	sc aggtable.BatchScratch
}

// frontEntries is the capacity of a shared-mode worker's front table:
// 8,192 slots of 49 bytes, sized to stay in a core's private L2.
const frontEntries = 4096

// sharedBudget splits the shared algorithms' TableEntries×Workers budget: front
// entries for each worker's front — at most a quarter of its share and the one
// batch of partials it is emptied through, none on ScalarPath, which builds no
// front — and the rest as the shared table's bound (0 = unbounded).
func (c Config) sharedBudget() (front, bound int) {
	if !c.ScalarPath {
		front = min(frontEntries, c.Batch)
	}
	if c.TableEntries > 0 {
		front = min(front, c.TableEntries/4)
		bound = (c.TableEntries - front) * c.Workers
	}
	return front, bound
}

type workerMode int

const (
	modeLocal workerMode = iota
	modeRoute
	modeShared
)

// noteOcc records the table's high-water occupancy for the obs layer.
// It takes just the occupancy hook so the Shared table (whose batch
// entry points need caller-owned scratch) qualifies alongside
// groupTable implementations.
func (wk *worker) noteOcc(tab interface{ OccupancyPermille() int }) {
	if occ := int64(tab.OccupancyPermille()); occ > wk.m.TableOcc {
		wk.m.TableOcc = occ
	}
}

// scanSide aggregates or routes this worker's partition, reporting whether
// it switched strategy. It is the owning loop of the worker's outbound
// batch state (outRaw/outPart).
//
//aggvet:loop scan
func (wk *worker) scanSide(part []tuple.Tuple) (switchedOut bool, err error) {
	w := wk.cfg.Workers
	wk.outRaw = make([]*rawBatch, w)
	wk.outPart = make([]*partBatch, w)
	wk.outRawC = make([]*colRawBatch, w)
	wk.outPartC = make([]*colPartBatch, w)
	if !wk.cfg.ScalarPath {
		return wk.scanSideBatch(part)
	}

	bound := wk.cfg.TableEntries
	local := wk.newTable(bound)
	mode := modeLocal
	switch wk.alg {
	case Repartitioning, AdaptiveRepartitioning:
		mode = modeRoute
	case Shared, AdaptiveShared:
		mode = modeShared
	}
	switched := false
	var spill spillStore // plain 2P's overflow buffer (memory or real disk)
	defer func() {
		if spill != nil {
			spill.close()
		}
	}()

	// ARep observation state.
	observing := wk.alg == AdaptiveRepartitioning
	obsSeen := 0
	obsGroups := make(map[tuple.Key]struct{})
	threshold := int(wk.cfg.SwitchRatio * float64(wk.cfg.InitSeg))
	if threshold < 1 {
		threshold = 1
	}

	wk.m.Scanned = int64(len(part))
	for _, t := range part {
		if mode == modeShared {
			if wk.sharedStep(t) {
				continue
			}
			// Not absorbed: AdaptiveShared is falling back. From here
			// this worker runs the AdaptiveTwoPhase strategy, starting
			// with this very tuple.
			mode = modeLocal
			switched = true
		}
		if mode == modeRoute && wk.alg == AdaptiveRepartitioning {
			if wk.fallback.Load() {
				// Another worker (or this one) declared end-of-phase.
				mode = modeLocal
				switched = true
				observing = false
			} else if observing {
				obsSeen++
				if len(obsGroups) <= threshold {
					obsGroups[t.Key] = struct{}{}
				}
				if len(obsGroups) > threshold {
					observing = false // plenty of groups: keep routing
				} else if obsSeen >= wk.cfg.InitSeg {
					observing = false
					wk.fallback.Store(true)
					mode = modeLocal
					switched = true
				}
			}
		}
		switch mode {
		case modeLocal:
			if local.UpdateRaw(t) {
				continue
			}
			// Local table is full and this tuple starts a new group.
			switch wk.alg {
			case AdaptiveTwoPhase, AdaptiveRepartitioning, AdaptiveShared:
				// Flush the accumulated partials, free the memory,
				// repartition from here on — the A-2P switch.
				wk.noteOcc(local)
				wk.flushPartials(local.Drain())
				mode = modeRoute
				switched = true
				wk.route(t)
			default:
				// Plain 2P spools the overflow tuple.
				wk.m.Spilled++
				if spill == nil {
					if spill, err = newSpillStore(wk.cfg); err != nil {
						return switched, err
					}
				}
				if err = spill.add(t); err != nil {
					return switched, err
				}
			}
		case modeRoute:
			wk.route(t)
		}
	}

	// Drain the local table, then process the spill in bounded passes,
	// exactly like the overflow-bucket loop of the paper.
	if wk.shared != nil {
		wk.noteOcc(wk.shared)
	}
	wk.noteOcc(local)
	wk.flushPartials(local.Drain())
	for spill != nil && spill.len() > 0 {
		var next spillStore
		tab := wk.newTable(bound)
		err = spill.drain(func(t tuple.Tuple) error {
			if tab.UpdateRaw(t) {
				return nil
			}
			if next == nil {
				var nerr error
				if next, nerr = newSpillStore(wk.cfg); nerr != nil {
					return nerr
				}
			}
			return next.add(t)
		})
		spill.close()
		spill = next
		if err != nil {
			if spill != nil {
				spill.close()
				spill = nil
			}
			return switched, err
		}
		wk.noteOcc(tab)
		wk.flushPartials(tab.Drain())
	}
	wk.flushAll()
	return switched, nil
}

// sharedStep folds one tuple into the shared concurrent table. It
// returns false when the tuple was NOT absorbed and the worker must fall
// back to partitioned aggregation (AdaptiveShared only): either another
// worker raised the fallback flag, or this fold was refused at the
// table's global bound. Plain Shared never falls back — refused tuples
// go to a worker-private unbounded overflow table, the live equivalent
// of the paper's spill pass, and the coordinator merges it at the end.
func (wk *worker) sharedStep(t tuple.Tuple) bool {
	if wk.alg == Shared {
		if wk.shared.UpdateRaw(t) {
			return true
		}
		wk.m.Spilled++
		wk.sharedOv.UpdateRaw(t)
		return true
	}
	if wk.fallback.Load() {
		return false
	}
	ok, contended := wk.shared.UpdateRawContended(t)
	if !ok {
		// Bound pressure: declare end-of-phase for every worker.
		wk.fallback.Store(true)
		return false
	}
	wk.sharedSeen++
	if contended {
		wk.sharedContended++
	}
	if wk.sharedSeen >= wk.cfg.InitSeg {
		if wk.sharedContentionHigh() {
			wk.fallback.Store(true)
		}
		wk.sharedSeen, wk.sharedContended = 0, 0
	}
	return true
}

// sharedContentionHigh is AdaptiveShared's switch predicate: more than
// SwitchRatio of the window's folds hit a held stripe lock. The window
// counts only folds that reach the shared table: a front takes no lock.
func (wk *worker) sharedContentionHigh() bool {
	return float64(wk.sharedContended) > wk.cfg.SwitchRatio*float64(wk.sharedSeen)
}

// mergeSide folds everything routed to this worker — raw tuples and
// partials alike (paper §3.2) — into one table and hands the table back
// for assemble to walk. The table is unbounded, so it refuses nothing: a
// merge side holds every group it owns until the query ends, and a bound
// here only moved the refused entries somewhere costlier (DESIGN.md §14).
// Every folded batch goes back to the exchange pool, which is what keeps
// the steady-state data plane allocation-free.
func (wk *worker) mergeSide(inbox <-chan message) groupTable {
	owned := wk.newTable(0)
	srcs := make([]bool, wk.cfg.Workers)
	for m := range inbox {
		if !srcs[m.src] {
			srcs[m.src] = true
			wk.m.FanIn++
		}
		switch {
		case m.craw != nil:
			owned.UpdateBatch(&m.craw.b, nil)
			wk.pools.colRaw.Put(m.craw)
		case m.cpart != nil:
			owned.MergeBatch(&m.cpart.pb, nil)
			wk.pools.colPart.Put(m.cpart)
		case m.raw != nil:
			for _, t := range m.raw.ts {
				owned.UpdateRaw(t)
			}
			wk.pools.raw.Put(m.raw)
		case m.part != nil:
			for _, pt := range m.part.ps {
				owned.MergePartial(pt)
			}
			wk.pools.part.Put(m.part)
		}
	}
	return owned
}

// route queues one raw tuple for the worker owning its group.
func (wk *worker) route(t tuple.Tuple) {
	wk.m.Routed++
	d := t.Key.Dest(wk.cfg.Workers)
	b := wk.outRaw[d]
	if b == nil {
		b = wk.pools.getRaw()
		wk.outRaw[d] = b
	}
	b.ts = append(b.ts, t)
	if len(b.ts) >= wk.cfg.Batch {
		wk.inboxes[d] <- message{src: wk.id, raw: b}
		wk.outRaw[d] = nil
	}
}

// flushPartials partitions a drained table's partials to their merge
// workers. The input is consumed (it aliases nothing once sent).
func (wk *worker) flushPartials(parts []tuple.Partial) {
	wk.m.PartialsSent += int64(len(parts))
	for _, pt := range parts {
		d := pt.Key.Dest(wk.cfg.Workers)
		b := wk.outPart[d]
		if b == nil {
			b = wk.pools.getPart()
			wk.outPart[d] = b
		}
		b.ps = append(b.ps, pt)
		if len(b.ps) >= wk.cfg.Batch {
			wk.inboxes[d] <- message{src: wk.id, part: b}
			wk.outPart[d] = nil
		}
	}
}

// flushAll sends every partially-filled batch.
func (wk *worker) flushAll() {
	for d := range wk.inboxes {
		if b := wk.outRaw[d]; b != nil {
			if len(b.ts) > 0 {
				wk.inboxes[d] <- message{src: wk.id, raw: b}
			} else {
				wk.pools.raw.Put(b)
			}
			wk.outRaw[d] = nil
		}
		if b := wk.outPart[d]; b != nil {
			if len(b.ps) > 0 {
				wk.inboxes[d] <- message{src: wk.id, part: b}
			} else {
				wk.pools.part.Put(b)
			}
			wk.outPart[d] = nil
		}
		if b := wk.outRawC[d]; b != nil {
			if b.b.Len() > 0 {
				wk.inboxes[d] <- message{src: wk.id, craw: b}
			} else {
				wk.pools.colRaw.Put(b)
			}
			wk.outRawC[d] = nil
		}
		if b := wk.outPartC[d]; b != nil {
			if b.pb.Len() > 0 {
				wk.inboxes[d] <- message{src: wk.id, cpart: b}
			} else {
				wk.pools.colPart.Put(b)
			}
			wk.outPartC[d] = nil
		}
	}
}
