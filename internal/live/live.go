// Package live is a real parallel aggregation engine: the same algorithms
// as internal/core, executed with actual goroutines and channels on the
// host machine instead of on the simulated cluster. Workers play the role
// of nodes, channel exchanges the role of the interconnect, and a bounded
// hash table the role of the memory budget; plain two-phase overflow spills
// to an in-memory buffer or, under Config.SpillToDisk, to real temporary
// files.
//
// The engine exists for two reasons. First, it is the artifact a user of
// this library most likely wants: a fast multicore GROUP BY. Second, it
// demonstrates the paper's central claim outside the simulator — the
// adaptive algorithms' per-worker switching works with real concurrency,
// real channel backpressure and real memory pressure, with no global
// synchronization.
//
// Each worker runs two goroutines, mirroring the Gamma operator split: a
// scan side that aggregates or routes its partition (scan.go), and a merge
// side that owns the groups hashing to the worker and consumes the exchange
// from the moment the query starts (so bounded exchange channels provide
// backpressure without deadlock).
//
// The data plane is allocation-free in steady state: worker tables are
// internal/aggtable open-addressing tables (inline update, no per-tuple
// map traffic), and exchange batches are sync.Pool-recycled — the merge
// side returns each batch to the pool after folding it, so after warm-up
// the scan sides append into recycled buffers instead of allocating.
// A scan side flushes a table unsorted, straight into the exchange, after
// sending each owner a reservation target (at an A-2P switch, the paper's
// §3.1 projection of the groups it will own), so a merge side sizes its
// table once instead of doubling its way up to them.
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
	if names := [...]string{"2P", "Rep", "A-2P", "A-Rep", "Shared", "A-Shared"}; a >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
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
	// passes for TwoPhase, the switch for AdaptiveTwoPhase); a merge side holds every
	// group its worker owns, sized from what the scan tables report. 0 means unbounded.
	// The shared algorithms pool it: a front takes at most a quarter of a share, the
	// rest bounds the table.
	TableEntries int

	// Batch is the scan chunk — the tuples a scan side folds or routes with
	// one call, between two looks at the adaptive triggers — and the number
	// of tuples or partials per exchanged message. Default 4096.
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

// colRawBatch and colPartBatch are the pooled columnar exchange buffers.
// The holder structs travel through the channels by pointer so the merge
// side can hand the same allocation back to the pool after folding it.
type colRawBatch struct{ b tuple.Batch }
type colPartBatch struct{ pb tuple.PartialBatch }

// exchangePools recycles exchange batches for one run. Pools are per-run,
// not global, so every pooled buffer has exactly cfg.Batch capacity and
// the allocations die with the run.
type exchangePools struct {
	colRaw  sync.Pool
	colPart sync.Pool
}

func newExchangePools(batch int) *exchangePools {
	return &exchangePools{
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

// message is one exchange batch between workers, or a flush's reservation
// target. Exactly one of raw/part/reserve is set; the receiver owns a batch
// and must return it to the pool once folded.
type message struct {
	src     int // sending worker, for merge fan-in accounting
	raw     *colRawBatch
	part    *colPartBatch
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

	owned := make([]*aggtable.Table, w) // each merge side's table of the groups it owns
	metrics := make([]WorkerMetrics, w)
	switched := make([]bool, w)
	errs := make([]error, w)
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
			switched[i], errs[i] = wk.scanSide(parts[i])
			span.End(fmt.Sprintf("%d tuples, switched=%v%s", len(parts[i]), switched[i], wk.estNote))
		}()
		go func() {
			defer all.Done()
			span := cfg.Tracer.Begin(i, "merge")
			var reserved int
			owned[i], reserved = wk.mergeSide(inboxes[i])
			metrics[i].GroupsOut = int64(owned[i].Len())
			span.End(fmt.Sprintf("%d groups, fan-in %d, reserved %d, %d slots",
				owned[i].Len(), metrics[i].FanIn, reserved, owned[i].Slots()))
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
func assemble(owned []*aggtable.Table, extra int) (map[tuple.Key]tuple.AggState, error) {
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
	rows     int    // the whole input, which the switch projects its group estimate over
	estNote  string // the switch's estimate, for the scan span once scanSide returns

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
	outRaw []*colRawBatch
	//aggvet:owner scan
	outPart []*colPartBatch
	//aggvet:owner scan
	reserve []int // a flush's reservation target per destination

	// Scan scratch: the reusable refusal index list of the chunk folds, and
	// the shared table's partition scratch. Both reach 0 allocs/op after
	// the first chunk.
	//
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

type workerMode int

const (
	modeLocal workerMode = iota
	modeRoute
	modeShared
)

// noteOcc records a table's high-water occupancy for the obs layer.
func (wk *worker) noteOcc(permille int) {
	wk.m.TableOcc = max(wk.m.TableOcc, int64(permille))
}

// sharedContentionHigh is AdaptiveShared's switch predicate: more than
// SwitchRatio of the window's folds hit a held stripe lock. The window
// counts only folds that reach the shared table: a front takes no lock.
func (wk *worker) sharedContentionHigh() bool {
	return float64(wk.sharedContended) > wk.cfg.SwitchRatio*float64(wk.sharedSeen)
}

// mergeSide folds everything routed to this worker — raw tuples and
// partials alike (paper §3.2) — into one table and hands it back for
// assemble to walk, with the largest reservation target it received, to
// which the table was sized. It is unbounded, so it refuses nothing: a
// merge side holds every group it owns until the query ends (DESIGN.md
// §14). Every folded batch goes back to the exchange pool, which is what
// keeps the steady-state data plane allocation-free.
func (wk *worker) mergeSide(inbox <-chan message) (owned *aggtable.Table, reserved int) {
	owned = aggtable.New(0)
	srcs := make([]bool, wk.cfg.Workers)
	for m := range inbox {
		if m.reserve > 0 { // Reserve is a no-op while the slots suffice
			reserved = max(reserved, m.reserve)
			owned.Reserve(reserved - owned.Len())
			continue
		}
		if !srcs[m.src] {
			srcs[m.src] = true
			wk.m.FanIn++
		}
		if m.raw != nil {
			owned.UpdateBatch(&m.raw.b, nil)
			wk.pools.colRaw.Put(m.raw)
		} else {
			owned.MergeBatch(&m.part.pb, nil)
			wk.pools.colPart.Put(m.part)
		}
	}
	return owned, reserved
}

// flushAll sends every partially-filled batch (a builder is never empty).
func (wk *worker) flushAll() {
	for d, inbox := range wk.inboxes {
		if b := wk.outRaw[d]; b != nil {
			inbox <- message{src: wk.id, raw: b}
		}
		if b := wk.outPart[d]; b != nil {
			inbox <- message{src: wk.id, part: b}
		}
		wk.outRaw[d], wk.outPart[d] = nil, nil
	}
}
