// Package live is a real parallel aggregation engine: the same algorithms
// as internal/core, executed with actual goroutines and channels on the
// host machine instead of on the simulated cluster. Workers play the role
// of nodes, channel exchanges the role of the interconnect, and a bounded
// hash table the role of the memory budget; a plain two-phase worker whose
// table fills evicts it to the groups' owners as partials and folds on.
//
// The engine exists for two reasons. First, it is the artifact a user of
// this library most likely wants: a fast multicore GROUP BY. Second, it
// demonstrates the paper's central claim outside the simulator — the
// adaptive algorithms' per-worker switching works with real concurrency,
// real channel backpressure and real memory pressure, with no global
// synchronization.
//
// Each worker runs two goroutines, mirroring the Gamma operator split: a
// scan side that aggregates or routes its partition (scan.go, over
// internal/kernel's loop), and a merge side that owns the groups hashing
// to the worker and consumes the exchange from the moment the query starts
// (so bounded exchange channels provide backpressure without deadlock).
//
// The data plane is allocation-free in steady state: a merge side folds
// into an internal/kernel Merge, sized from the scan sides' reservation
// targets, and returns each buffer to the run's pool once folded; every
// table goes back to aggtable's pool once its scan ends or it is poured.
package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/kernel"
	"parallelagg/internal/obs"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
)

// Algorithm selects the parallel strategy; the first four are
// internal/kernel's, which runs them. The disk-centric members of the
// paper's lineup (C-2P's coordinator and the Sampling front-end) are
// omitted: with the relation already in memory, sampling saves nothing and
// a centralized merge is strictly worse than the parallel one.
type Algorithm int

const (
	// TwoPhase: each worker aggregates its partition locally, then the
	// partials are hash-partitioned and merged in parallel. A worker whose
	// table fills evicts it to the owners as partials and folds on.
	TwoPhase = Algorithm(kernel.TwoPhase)
	// Repartitioning: raw tuples are hash-partitioned first; each worker
	// aggregates only the groups it owns.
	Repartitioning = Algorithm(kernel.Repartitioning)
	// AdaptiveTwoPhase: start as TwoPhase; a worker whose local table
	// fills flushes its partials and repartitions the rest raw.
	AdaptiveTwoPhase = Algorithm(kernel.AdaptiveTwoPhase)
	// AdaptiveRepartitioning: start as Repartitioning; a worker whose first
	// TableEntries/2 tuples project to groups its table holds raises a
	// shared flag and every worker falls back to AdaptiveTwoPhase.
	AdaptiveRepartitioning = Algorithm(kernel.AdaptiveRepartitioning)
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
	Shared = AdaptiveRepartitioning + 1
	// AdaptiveShared: start as Shared; a worker that sees the shared
	// table refuse a tuple (bound pressure) or more than sharedRatio of
	// its last sharedWindow shared-table folds contend on a stripe lock raises
	// a flag; every worker then empties its front into the shared table and
	// runs the AdaptiveTwoPhase strategy on the rest of its partition. The
	// shared contents are poured once at the end over the exchanged results.
	AdaptiveShared = Shared + 1
)

// String returns the paper's abbreviation.
func (a Algorithm) String() string {
	if names := [...]string{"Shared", "A-Shared"}; a >= Shared && a <= AdaptiveShared {
		return names[a-Shared]
	}
	return kernel.Algorithm(a).String()
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
	// triggering the overflow behaviour of the chosen algorithm (an eviction
	// for TwoPhase, the switch for AdaptiveTwoPhase); a merge side holds every
	// group its worker owns, sized from what the scan tables report, 41 B a
	// slot, and one reserved past 2^16 slots stages raw tuples in 16 B more
	// a slot while it folds them (DESIGN.md §14). 0 means unbounded.
	// It is an allocation as well as a cap: a worker that folds allocates its
	// scan table at the bound, at its first fold — the least power of two of
	// slots that holds TableEntries below 13/16 load, 41 B a slot (1.3 MB at
	// 16,384). Tables take their memory from a process-wide pool and give it
	// back when the run ends, so later runs reuse it rather than allocate it
	// again.
	// The shared algorithms pool it: a front takes at most a quarter of a share, the
	// rest bounds the table.
	TableEntries int

	// Batch is the scan chunk — the tuples a scan side folds or routes with
	// one call, between two looks at the adaptive triggers — and the number
	// of tuples or partials per exchanged message. Default 4096.
	Batch int

	// Obs, when non-nil, receives per-worker counters (rows, routed
	// tuples, partials, spills, groups, merge fan-in) and whole-run
	// throughput after the aggregation completes.
	Obs *obs.Registry

	// Tracer, when non-nil, records a scan and a merge span per worker.
	Tracer *trace.Tracer
}

// WorkerCount is the number of workers c runs with: Workers, or by
// default runtime.GOMAXPROCS(0).
func (c Config) WorkerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) withDefaults() Config {
	c.Workers = c.WorkerCount()
	if c.Batch <= 0 {
		c.Batch = 4096
	}
	return c
}

// WorkerMetrics records one worker's activity.
type WorkerMetrics struct {
	Scanned      int64 // tuples this worker's scan side processed
	Routed       int64 // raw tuples shipped to other workers
	PartialsSent int64 // partial aggregates shipped
	Spilled      int64 // entries that left the bounded table: groups TwoPhase evicted to their owners; Shared: tuples refused at the global bound
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

// pool is a run's free list of exchange buffers: a scan side takes one when
// a record needs room, the merge side puts it back once folded. Pools are
// per run, so the buffers die with it; an empty pool allocates n-record
// buffers, and put drops a buffer when the pool is full or the buffer holds
// fewer than n records (the kernel's own, for a flush of a few groups), so
// get hands out none smaller.
type pool[T any] chan []T

func (p pool[T]) get(n int) []T {
	select {
	case b := <-p:
		return b[:0]
	default:
		return make([]T, 0, n)
	}
}

func (p pool[T]) put(b []T, n int) {
	if cap(b) < n {
		return
	}
	select {
	case p <- b:
	default:
	}
}

// exchangePools are a w-worker run's pools, with room for every buffer that
// can be in flight at once: the inboxes' and one per scan side and
// destination of each kind.
type exchangePools struct {
	raw  pool[tuple.Tuple]
	part pool[tuple.Partial]
}

func newExchangePools(w int) *exchangePools {
	return &exchangePools{make(pool[tuple.Tuple], 4*w*w), make(pool[tuple.Partial], 4*w*w)}
}

// message is one exchange buffer between workers, or a flush's reservation
// target. Exactly one of raw/part/reserve is set; the receiver owns a buffer
// and returns it to the pool once folded.
type message struct {
	src     int // sending worker, for merge fan-in accounting
	raw     []tuple.Tuple
	part    []tuple.Partial
	reserve int // groups to make room for, sent ahead of a flush's partials
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
	if alg < TwoPhase || alg > AdaptiveShared {
		return nil, fmt.Errorf("live: unknown algorithm %v", alg)
	}

	// The shared algorithms fold into one concurrent table, at
	// aggtable's default stripe count. Its bound is the global equivalent
	// of the per-worker budget: TableEntries entries per worker, pooled,
	// less what the workers' fronts hold.
	var shared *aggtable.Shared
	if alg == Shared || alg == AdaptiveShared {
		_, bound := cfg.sharedBudget()
		shared = aggtable.NewShared(bound, 0)
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
	pools := newExchangePools(w)
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

	owned := make([]*aggtable.Table, w) // each merge side's table of the groups it owns
	metrics := make([]WorkerMetrics, w)
	var fallback atomic.Bool // ARep's broadcast "end-of-phase" flag
	rows := 0
	for _, p := range parts {
		rows += len(p)
	}

	start := time.Now()
	var all sync.WaitGroup
	workers := make([]*worker, w)
	for i := 0; i < w; i++ {
		i := i
		wk := &worker{id: i, cfg: cfg, alg: alg, inboxes: inboxes, rows: rows,
			fallback: &fallback, m: &metrics[i], pools: pools, shared: shared}
		if shared != nil {
			wk.sharedOv = aggtable.New(0)
		}
		workers[i] = wk
		all.Add(2)
		go func() {
			defer all.Done()
			defer scanners.Done()
			span := cfg.Tracer.Begin(i, "scan")
			metrics[i].Switched = wk.scanSide(parts[i])
			if span != nil {
				span.End(fmt.Sprintf("%d tuples, switched=%v%s", len(parts[i]), metrics[i].Switched, wk.k.Note("owner")))
			}
		}()
		go func() {
			defer all.Done()
			span := cfg.Tracer.Begin(i, "merge")
			mg := kernel.NewMerge()
			wk.mergeSide(inboxes[i], mg)
			owned[i] = mg.Table()
			metrics[i].GroupsOut = int64(owned[i].Len())
			if span != nil {
				staged, folds := mg.Staged()
				span.End(fmt.Sprintf("%d groups, fan-in %d, reserved %d, %d slots, staged %d in %d folds",
					owned[i].Len(), metrics[i].FanIn, mg.Reserved(), owned[i].Slots(), staged, folds))
			}
		}()
	}
	all.Wait()
	elapsed := time.Since(start)

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
			wk.sharedOv.Release()
		}
	}
	res := &Result{Groups: merged, PerWorker: metrics}
	for _, m := range metrics {
		if m.Switched {
			res.Switched++
		}
	}
	publishObs(cfg.Obs, metrics, elapsed)
	return res, nil
}

// assemble builds the result map from the merge sides' tables, indexed by
// worker, so a duplicate-producer error names the second worker.
func assemble(owned []*aggtable.Table, extra int) (map[tuple.Key]tuple.AggState, error) {
	merged, err := kernel.Assemble(owned, extra)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	return merged, nil
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
	rows     int // the whole input, which the switch projects its group estimate over

	// k is the scan side's run of the kernel loop; the worker is its exchange.
	k kernel.Scan

	// shared is the one concurrent table every worker folds into under
	// the Shared/AdaptiveShared algorithms (nil otherwise). sharedOv is
	// this worker's private overflow table for what plain Shared could
	// not absorb at the bound; the scan side fills it, the coordinator
	// pours it out after every worker has finished.
	shared   *aggtable.Shared
	sharedOv *aggtable.Table

	// Shared mode's scan state (sharedChunk): front is the bounded private
	// table every chunk folds into first (nil when the budget has no room for
	// one, or once a chunk found it cold), miss the tuples it refused, on their
	// way to the shared table, bounced the indexes that table refused in its
	// turn, left those entries, AdaptiveShared's, on their way to the exchange;
	// refused and sc are the front fold's and the shared table's scratch, at 0
	// allocs/op after the first chunk.
	//
	//aggvet:owner scan
	front *aggtable.Table
	//aggvet:owner scan
	miss tuple.Batch
	//aggvet:owner scan
	bounced []int
	//aggvet:owner scan
	left []tuple.Partial
	//aggvet:owner scan
	refused []int
	//aggvet:owner scan
	sc aggtable.BatchScratch

	// Contention-window accounting for AdaptiveShared, scan-side only.
	sharedSeen      int
	sharedContended int
}

// frontEntries is the capacity of a shared-mode worker's front table:
// 8,192 slots of 49 bytes, sized to stay in a core's private L2.
const frontEntries = 4096

// sharedBudget splits the shared algorithms' TableEntries×Workers budget: front
// entries for each worker's front — at most a quarter of its share and the one
// batch of partials it is emptied through — and the rest as the shared table's
// bound (0 = unbounded).
func (c Config) sharedBudget() (front, bound int) {
	front = min(frontEntries, c.Batch)
	if c.TableEntries > 0 {
		front = min(front, c.TableEntries/4)
		bound = (c.TableEntries - front) * c.Workers
	}
	return front, bound
}

// noteOcc records a table's high-water occupancy for the obs layer.
func (wk *worker) noteOcc(permille int) {
	wk.m.TableOcc = max(wk.m.TableOcc, int64(permille))
}

// AdaptiveShared's contention window: sharedWindow consecutive folds that
// reach the shared table (a front takes no lock), of which more than
// sharedRatio hit a held stripe lock to fall back.
const sharedWindow, sharedRatio = 4096, 0.1

// sharedContentionHigh is AdaptiveShared's switch predicate.
func (wk *worker) sharedContentionHigh() bool {
	return float64(wk.sharedContended) > sharedRatio*float64(wk.sharedSeen)
}

// mergeSide folds everything routed to this worker into mg until every
// scan side is done, and returns each buffer to the exchange pool.
func (wk *worker) mergeSide(inbox <-chan message, mg *kernel.Merge) {
	srcs := make([]bool, wk.cfg.Workers)
	for m := range inbox {
		if m.reserve > 0 {
			mg.Reserve(m.reserve)
			continue
		}
		if !srcs[m.src] {
			srcs[m.src] = true
			wk.m.FanIn++
		}
		mg.Raw(m.raw)
		mg.Partials(m.part)
		wk.pools.raw.put(m.raw, wk.cfg.Batch)
		wk.pools.part.put(m.part, wk.cfg.Batch)
	}
}
