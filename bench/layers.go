package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"sync"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/dist"
	"parallelagg/internal/live"
	"parallelagg/internal/obs"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
)

// Every layer is measured from outside: by timing calls into its public
// functions on pre-materialised input, and by reading what the engines
// already publish through Config.Tracer and Config.Obs.

const (
	kernelBatch = 4096    // rows per batch in the aggtable cells (live's default Batch)
	codecBlock  = 1024    // records per block in the codec cells (dist's default Batch)
	kernelRows  = 1 << 17 // a kernel cell's input: this long a prefix of one partition
	kernelReps  = 15      // repetitions of a kernel cell; the median is reported
)

// countFor is how many repetitions of something that takes perNS fit into
// seconds, kept within [lo, hi].
func countFor(seconds, perNS float64, lo, hi int) int {
	return min(max(int(seconds*1e9/perNS), lo), hi)
}

// tracedPass runs after the timed rounds: traced queries paired with
// untraced ones (their difference is the tracing overhead), the
// per-algorithm line-ups, and the kernel cells. It returns the runner's
// spans for the workload's trace file.
func (r *runner) tracedPass(st *state) *recorder {
	rec := &recorder{clock: r.clock}
	samples := make(map[string][]float64) // per-query observations; the median is reported
	// The pairs get 30 % of the pass's budget and the line-up the rest,
	// sized by the query time the timed rounds saw.
	st.queryNS = median(st.timedWalls())
	pairs := countFor(0.3*r.opt.traceSeconds, 2*st.queryNS, 3, 20)
	var traced, untraced []float64
	for q := 1; q <= pairs; q++ {
		t0 := time.Now()
		res, err := st.inst.query(nil, nil)
		untraced = append(untraced, float64(time.Since(t0)))
		r.check(st, res, err, "untraced pair", 0, q)

		tr, reg := trace.NewTracer(r.clock), obs.New()
		res, call, ok := r.spannedQuery(st, rec, q, func() (result, error) { return st.inst.query(tr, reg) })
		traced = append(traced, float64(call.duration()))
		engine := tr.Spans()
		rec.adopt(call.ID, q, engine)
		if ok {
			observe(samples, st.inst, call, engine, res, reg)
		}
	}
	for name, xs := range samples {
		st.layer[name] = median(xs)
	}
	st.layer["bench.trace_overhead_share"] = (median(traced) - median(untraced)) / median(untraced)
	st.selfShare = selfShareByName(rec.spans)

	next := pairs + 1 // query ids continue through the line-ups
	switch st.inst.w.Kind {
	case kindLive:
		r.liveLineup(st, rec, &next)
		r.tupleKernels(st, rec)
		r.aggtableKernels(st, rec)
	case kindDist:
		r.distLineup(st, rec, &next)
		r.tupleKernels(st, rec)
		r.codecKernels(st, rec)
	}
	return rec
}

// spannedQuery runs one checked query under the runner's spans:
// bench.query → the public call → (adopted engine spans), then bench.check.
func (r *runner) spannedQuery(st *state, rec *recorder, q int, run func() (result, error)) (result, span, bool) {
	root := rec.begin(0, q, "bench.query")
	call := rec.begin(root, q, st.inst.w.Kind.call())
	res, err := run()
	rec.end(call)
	chk := rec.begin(root, q, "bench.check")
	ok := r.check(st, res, err, "traced pass", 0, q)
	rec.end(chk)
	rec.end(root)
	return res, rec.get(call), ok
}

// observe extracts one traced query's per-layer observations.
func observe(samples map[string][]float64, in *instance, call span, engine []trace.Span, res result, reg *obs.Registry) {
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	longest := make(map[string]int64)
	var scanSum, scanN, scanEnd int64
	first, last := call.EndNS, call.StartNS
	for _, s := range engine {
		longest[s.Name] = max(longest[s.Name], s.Duration())
		if s.Name == "scan" {
			scanSum += s.Duration()
			scanN++
			scanEnd = max(scanEnd, s.End)
		}
		first, last = min(first, s.Start), max(last, s.End)
	}
	rows := float64(in.rows)
	switch in.w.Kind {
	case kindLive:
		lr := res.(liveResult)
		add("live.scan_ms_max", ms(longest["scan"]))
		add("live.merge_ms_max", ms(longest["merge"]))
		add("live.merge_tail_ms", ms(last-scanEnd))
		add("live.scan_skew", float64(longest["scan"])*float64(scanN)/float64(scanSum))
		add("live.startup_ms", ms(first-call.StartNS))
		add("live.assembly_ms", ms(call.EndNS-last))
		var routed, partials, spilled int64
		for _, m := range lr.PerWorker {
			routed, partials, spilled = routed+m.Routed, partials+m.PartialsSent, spilled+m.Spilled
		}
		add("live.switched_workers", float64(lr.Switched))
		add("live.routed_share", float64(routed)/rows)
		add("live.partials_per_group", float64(partials)/float64(len(lr.Groups)))
		add("live.spilled_share", float64(spilled)/rows)
	case kindDist:
		add("dist.dial_ms_max", ms(longest["dial"]))
		add("dist.scan_ms_max", ms(longest["scan"]))
		add("dist.merge_ms_max", ms(longest["merge"]))
		add("dist.combine_ms", ms(call.EndNS-last))
		add("dist.wire_bytes_per_row", promSum(reg, "dist_bytes_sent_total")/rows)
		add("dist.frames_per_krow", promSum(reg, "dist_frames_sent_total")/rows*1000)
	case kindSQL:
		wall := ms(call.duration())
		engineMS := promSum(reg, "live_elapsed_ns_total") / 1e6
		add("query.engine_passes", promSum(reg, "live_runs_total"))
		add("query.engine_ms", engineMS)
		add("query.self_ms", wall-engineMS)
		add("query.self_share", (wall-engineMS)/wall)
	}
}

// promSum adds up every series of one counter family. The registry's only
// public read path across label sets is its Prometheus text snapshot.
func promSum(reg *obs.Registry, family string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(reg.Snapshot()))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// selfShareByName sums self time per span name over the traced queries
// and returns each name's share of the total.
func selfShareByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string]float64)
	var total float64
	for _, s := range spans {
		byName[s.Name] += float64(self[s.ID])
		total += float64(self[s.ID])
	}
	for name := range byName {
		byName[name] /= total
	}
	return byName
}

// lineup runs each contender's query 2 to 10 times, as many as 70 % of the
// traced pass's budget allows, round-robin, so that a noise burst costs
// every contender a sample. It returns each one's rows per second at its
// median query time.
func (r *runner) lineup(st *state, rec *recorder, next *int, queries []func() (result, error)) []float64 {
	walls := make([][]float64, len(queries))
	n := countFor(0.7*r.opt.traceSeconds, float64(len(queries))*st.queryNS, 2, 10)
	for i := 0; i < n; i++ {
		for c, run := range queries {
			_, call, _ := r.spannedQuery(st, rec, *next, run)
			*next++
			walls[c] = append(walls[c], float64(call.duration()))
		}
	}
	rates := make([]float64, len(queries))
	for c := range queries {
		rates[c] = float64(st.inst.rows) / median(walls[c]) * 1e9
	}
	return rates
}

func untracedLive(p int, parts [][]tuple.Tuple, alg live.Algorithm) func() (result, error) {
	q := liveQuery(p, parts, alg)
	return func() (result, error) { return q(nil, nil) }
}

// liveLineup is the paper's curve at this workload's point: every live
// algorithm on the same input, and A-2P against the better fixed one.
func (r *runner) liveLineup(st *state, rec *recorder, next *int) {
	algs := live.Algorithms()
	queries := make([]func() (result, error), len(algs))
	for i, alg := range algs {
		queries[i] = untracedLive(r.p, st.inst.parts, alg)
	}
	rates := r.lineup(st, rec, next, queries)
	byName := make(map[string]float64)
	for i, alg := range algs {
		byName[alg.String()] = rates[i]
		st.layer["live.rows_per_s."+alg.String()] = rates[i]
	}
	st.layer["live.a2p_vs_best_fixed"] = byName["A-2P"] / max(byName["2P"], byName["Rep"])
}

// distLineup runs the four distributed algorithms fail-fast, A-2P in
// tolerant mode with no faults, and live A-2P on the same input.
func (r *runner) distLineup(st *state, rec *recorder, next *int) {
	algs := []dist.Algorithm{dist.TwoPhase, dist.Repartitioning, dist.AdaptiveTwoPhase, dist.AdaptiveRepartitioning}
	var queries []func() (result, error)
	for _, alg := range algs {
		q := distQuery(st.inst.parts, dist.Config{Algorithm: alg})
		queries = append(queries, func() (result, error) { return q(nil, nil) })
	}
	tolerant := distQuery(st.inst.parts, dist.Config{Algorithm: dist.AdaptiveTwoPhase, Tolerate: true})
	queries = append(queries,
		func() (result, error) { return tolerant(nil, nil) },
		untracedLive(r.p, st.inst.parts, live.AdaptiveTwoPhase))
	rates := r.lineup(st, rec, next, queries)
	for i, alg := range algs {
		st.layer["dist.rows_per_s."+alg.String()] = rates[i]
	}
	a2p := st.layer["dist.rows_per_s.A-2P"]
	st.layer["dist.tolerant_vs_failfast"] = rates[len(algs)] / a2p
	st.layer["dist.vs_live"] = a2p / rates[len(algs)+1]
}

// cell times fn kernelReps times under one runner span and records the
// median in nanoseconds per unit. prep, when non-nil, runs untimed before
// every repetition.
func (r *runner) cell(st *state, rec *recorder, name string, units int, prep, fn func()) {
	id := rec.begin(0, 0, name)
	times := make([]float64, kernelReps)
	for i := range times {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		times[i] = float64(time.Since(t0))
	}
	rec.end(id)
	st.layer[name] = median(times) / float64(units)
}

// kernelPart is the input of the kernel cells: a prefix of the last
// partition, which on live_skew is a many-groups partition and on every
// other workload is like all the rest. The prefix keeps the workload's
// regime — 2^17 rows still never fill live_few's table and still outgrow
// live_many's at once — and keeps fifteen repetitions of every cell within
// a few seconds.
func kernelPart(in *instance) []tuple.Tuple { return prefix(in.parts[len(in.parts)-1]) }

func prefix(part []tuple.Tuple) []tuple.Tuple { return part[:min(len(part), kernelRows)] }

// sink keeps the compiler from discarding a kernel's work.
var sink uint64

func (r *runner) tupleKernels(st *state, rec *recorder) {
	part := kernelPart(st.inst)
	keys := make([]tuple.Key, len(part))
	for i, t := range part {
		keys[i] = t.Key
	}
	p := r.p
	r.cell(st, rec, "tuple.hash_ns_per_key", len(keys), nil, func() {
		var acc uint64
		for _, k := range keys {
			acc += k.Hash() + uint64(k.Dest(p))
		}
		sink += acc
	})
	b := tuple.NewBatch(kernelBatch)
	r.cell(st, rec, "tuple.batch_append_ns_per_row", len(part), nil, func() {
		for off := 0; off < len(part); off += kernelBatch {
			b.Reset()
			b.AppendRows(part[off:min(off+kernelBatch, len(part))])
		}
		sink += uint64(b.Len())
	})
}

// codecKernels round-trips the partition through the four wire codecs in
// 1,024-record blocks: the raw tuples, and the partials an unbounded fold
// of them produces.
func (r *runner) codecKernels(st *state, rec *recorder) {
	part := kernelPart(st.inst)
	fold := aggtable.New(0)
	for _, t := range part {
		fold.UpdateRaw(t)
	}
	partials := fold.Drain()

	buf := make([]byte, codecBlock*tuple.PartialSize)
	rawOut := make([]tuple.Tuple, 0, codecBlock)
	partOut := make([]tuple.Partial, 0, codecBlock)
	r.cell(st, rec, "tuple.codec_raw_ns_per_row", len(part), nil, func() {
		for off := 0; off < len(part); off += codecBlock {
			blk := part[off:min(off+codecBlock, len(part))]
			for i, t := range blk {
				tuple.EncodeRaw(buf[i*tuple.RawSize:], t)
			}
			rawOut = rawOut[:0]
			for i := range blk {
				rawOut = append(rawOut, tuple.DecodeRaw(buf[i*tuple.RawSize:]))
			}
		}
		sink += uint64(len(rawOut))
	})
	r.cell(st, rec, "tuple.codec_rawcol_ns_per_row", len(part), nil, func() {
		for off := 0; off < len(part); off += codecBlock {
			blk := part[off:min(off+codecBlock, len(part))]
			tuple.EncodeRawCol(buf, blk)
			rawOut = tuple.DecodeRawCol(rawOut[:0], buf[:len(blk)*tuple.RawSize], len(blk))
		}
		sink += uint64(len(rawOut))
	})
	r.cell(st, rec, "tuple.codec_partial_ns_per_row", len(partials), nil, func() {
		for off := 0; off < len(partials); off += codecBlock {
			blk := partials[off:min(off+codecBlock, len(partials))]
			for i, pt := range blk {
				tuple.EncodePartial(buf[i*tuple.PartialSize:], pt)
			}
			partOut = partOut[:0]
			for i := range blk {
				partOut = append(partOut, tuple.DecodePartial(buf[i*tuple.PartialSize:]))
			}
		}
		sink += uint64(len(partOut))
	})
	r.cell(st, rec, "tuple.codec_partialcol_ns_per_row", len(partials), nil, func() {
		for off := 0; off < len(partials); off += codecBlock {
			blk := partials[off:min(off+codecBlock, len(partials))]
			tuple.EncodePartialCol(buf, blk)
			partOut = tuple.DecodePartialCol(partOut[:0], buf[:len(blk)*tuple.PartialSize], len(blk))
		}
		sink += uint64(len(partOut))
	})
}

// batches materialises part as kernelBatch-row columnar batches.
func batches(part []tuple.Tuple) []*tuple.Batch {
	var out []*tuple.Batch
	for off := 0; off < len(part); off += kernelBatch {
		blk := part[off:min(off+kernelBatch, len(part))]
		b := tuple.NewBatch(len(blk))
		b.AppendRows(blk)
		out = append(out, b)
	}
	return out
}

func (r *runner) aggtableKernels(st *state, rec *recorder) {
	part := kernelPart(st.inst)
	bs := batches(part)

	// The exact counts first: one bounded and one unbounded fold.
	bounded, fold := aggtable.New(tableEntries), aggtable.New(0)
	refusals := 0
	for _, t := range part {
		if !bounded.UpdateRaw(t) {
			refusals++
		}
		fold.UpdateRaw(t)
	}
	groups := fold.Len()
	st.layer["aggtable.refused_permille"] = 1000 * float64(refusals) / float64(len(part))
	st.layer["aggtable.slots_per_group"] = float64(fold.Slots()) / float64(groups)
	var pbs []*tuple.PartialBatch
	for i, pt := range fold.Drain() {
		if i%kernelBatch == 0 {
			pbs = append(pbs, tuple.NewPartialBatch(kernelBatch))
		}
		pbs[len(pbs)-1].Append(pt)
	}

	r.cell(st, rec, "aggtable.update_ns_per_row", len(part), nil, func() {
		t := aggtable.New(0)
		for _, tp := range part {
			t.UpdateRaw(tp)
		}
		sink += uint64(t.Len())
	})
	r.cell(st, rec, "aggtable.update_presized_ns_per_row", len(part), nil, func() {
		t := aggtable.NewSized(0, groups)
		for _, tp := range part {
			t.UpdateRaw(tp)
		}
		sink += uint64(t.Len())
	})
	var refused []int
	r.cell(st, rec, "aggtable.update_batch_ns_per_row", len(part), nil, func() {
		t := aggtable.New(0)
		for _, b := range bs {
			refused = t.UpdateBatch(b, refused[:0])
		}
		sink += uint64(t.Len())
	})
	mergeAll := func() *aggtable.Table {
		t := aggtable.New(0)
		for _, pb := range pbs {
			refused = t.MergeBatch(pb, refused[:0])
		}
		return t
	}
	r.cell(st, rec, "aggtable.merge_batch_ns_per_partial", groups, nil, func() {
		sink += uint64(mergeAll().Len())
	})
	var full *aggtable.Table
	r.cell(st, rec, "aggtable.drain_ns_per_group", groups,
		func() { full = mergeAll() },
		func() { sink += uint64(len(full.Drain())) })

	if st.inst.w.Alg == live.Shared {
		r.sharedKernel(st, rec)
	}
}

// sharedKernel folds every partition into one striped table from P
// goroutines at once, the way live.Shared's scan sides do.
func (r *runner) sharedKernel(st *state, rec *recorder) {
	parts := st.inst.parts
	perWorker := make([][]*tuple.Batch, len(parts))
	rows := 0
	for i, part := range parts {
		perWorker[i] = batches(prefix(part))
		rows += len(prefix(part))
	}
	contended := make([]int, len(parts))
	r.cell(st, rec, "aggtable.shared_update_batch_ns_per_row", rows, nil, func() {
		sh := aggtable.NewShared(tableEntries*len(parts), 0)
		var wg sync.WaitGroup
		for w := range perWorker {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sc aggtable.BatchScratch
				var refused []int
				n := 0
				for _, b := range perWorker[w] {
					var c int
					refused, c = sh.UpdateBatchContended(&sc, b, refused[:0])
					n += c
				}
				contended[w] = n // the last repetition's count is the one reported
			}()
		}
		wg.Wait()
		sink += uint64(sh.Len())
	})
	total := 0
	for _, c := range contended {
		total += c
	}
	st.layer["aggtable.shared_contended_permille"] = 1000 * float64(total) / float64(rows)
}
