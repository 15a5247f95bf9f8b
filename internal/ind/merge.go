package ind

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
)

// This file is the one merge core behind SpiderMerge, PartialSpiderMerge,
// the n-ary level merge and the embedded-IND merge. Every involved
// attribute's cursor streams through one k-way min-heap merge front, so
// each value set is read at most once — the single-pass I/O optimum the
// paper's Sec 3.3 result points at, without the event-driven
// synchronisation it measures. Every candidate carries matched/missing
// counts under a miss budget derived from the threshold σ (the Sec 7
// partial-IND extension); at σ = 1 the budget is zero, so the first miss
// refutes and the counts reduce to the exact engine's set intersection.
//
// The merge runs once per value range: one range straight over the
// source when unsharded, or S disjoint ranges on a worker pool. Counts
// are additive over disjoint ranges — a dependent value can only find
// its match inside its own range — so the per-range counts sum at the
// join into exactly the counts a single merge produces, and the output
// is identical at any shard count.

// SpiderMergeOptions tunes SpiderMerge.
type SpiderMergeOptions struct {
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Source provides the attributes' value cursors; nil selects Store,
	// then the sorted value files written by ExportAttributes, counted
	// by Counter. An unsharded run opens each attribute at most once; a
	// sharded run opens it once per shard, concurrently, bounded to the
	// shard's value range.
	Source RangeSource
	// Store serves the attributes' value sets when Source is nil.
	Store store.Dataset
	// Shards is S, the number of disjoint value ranges merged
	// independently. Zero or one runs a single merge.
	Shards int
	// Workers bounds the shard worker pool; zero selects
	// min(Shards, GOMAXPROCS).
	Workers int
}

// PartialMergeOptions tunes PartialSpiderMerge.
type PartialMergeOptions struct {
	// Threshold is σ: the minimum fraction of distinct dependent values
	// that must occur in the referenced attribute. Values outside (0, 1]
	// are rejected.
	Threshold float64
	// Counter, Source, Store, Shards and Workers are as in
	// SpiderMergeOptions.
	Counter *valfile.ReadCounter
	Source  RangeSource
	Store   store.Dataset
	Shards  int
	Workers int
}

// SpiderMerge tests every candidate in one pass over all attribute
// cursors — the production fast path. The invariant is set-theoretic:
// for every value v at the merge front, the group A of attributes whose
// streams contain v is known, and a dependent d ∈ A keeps its candidate
// d ⊆ r only if r ∈ A. When d's stream ends, its surviving candidates
// are exactly the satisfied INDs. Cursors close early once no undecided
// candidate needs them, so ItemsRead is at most the single-pass total.
func SpiderMerge(cands []Candidate, opts SpiderMergeOptions) (*Result, error) {
	start := time.Now()
	run, err := runMerge(cands, 1, rangeSourceOrStore(opts.Source, opts.Store, opts.Counter), opts.Shards, opts.Workers, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: run.stats}
	for i, c := range run.cands {
		if !run.counts[i].dropped {
			res.Satisfied = append(res.Satisfied, IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref})
		}
	}
	res.Stats.Candidates = len(cands)
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.ItemsRead = totalRead(opts.Counter)
	res.Stats.BytesRead = totalBytes(opts.Counter)
	res.Stats.Duration = time.Since(start)
	sortINDs(res.Satisfied)
	return res, nil
}

// PartialSpiderMerge tests every candidate for partial inclusion at the
// given threshold in the same one-pass merge. For every value at the
// merge front, each dependent attribute in the merge group scores each
// of its undecided candidates: matched if the referenced stream also
// contains the value, missing otherwise. A candidate is refuted as soon
// as its misses exceed the budget |s(a)| − ⌈σ·|s(a)|⌉; the survivors'
// final counts yield coverages identical to BruteForcePartial's, which
// reopens both value files for every candidate where this engine reads
// each value set at most once.
func PartialSpiderMerge(cands []Candidate, opts PartialMergeOptions) (*PartialResult, error) {
	if err := checkPartialThreshold(opts.Threshold); err != nil {
		return nil, err
	}
	start := time.Now()
	run, err := runMerge(cands, opts.Threshold, rangeSourceOrStore(opts.Source, opts.Store, opts.Counter), opts.Shards, opts.Workers, nil)
	if err != nil {
		return nil, err
	}
	res := &PartialResult{Stats: run.stats}
	for i, c := range run.cands {
		if m, ok := partialVerdict(run.counts[i], opts.Threshold, c.Dep, c.Ref); ok {
			res.Satisfied = append(res.Satisfied, m)
		}
	}
	finishPartialResult(res, len(cands), opts.Counter, start)
	return res, nil
}

// checkPartialThreshold rejects thresholds outside (0, 1].
func checkPartialThreshold(sigma float64) error {
	if sigma <= 0 || sigma > 1 {
		return fmt.Errorf("ind: partial threshold must be in (0, 1], got %v", sigma)
	}
	return nil
}

// partialVerdict decides one candidate from its accumulated counts,
// mirroring BruteForcePartial's checks exactly so the two engines return
// byte-identical results: an empty dependent set is trivially included,
// an exhausted miss budget refutes, and survivors satisfy iff their
// measured coverage reaches the threshold.
func partialVerdict(st mergeCount, sigma float64, dep, ref *Attribute) (PartialMatch, bool) {
	if st.dropped {
		return PartialMatch{}, false
	}
	ind := IND{Dep: dep.Ref, Ref: ref.Ref}
	total := st.matched + st.missing
	if total == 0 {
		return PartialMatch{IND: ind, Coverage: 1}, true
	}
	coverage := float64(st.matched) / float64(total)
	if coverage+1e-12 >= sigma {
		return PartialMatch{IND: ind, Coverage: coverage, Missing: st.missing}, true
	}
	return PartialMatch{}, false
}

// finishPartialResult fills the shared result trailer: stats totals and
// the deterministic (dep, ref) output order BruteForcePartial uses.
func finishPartialResult(res *PartialResult, candidates int, counter *valfile.ReadCounter, start time.Time) {
	res.Stats.Candidates = candidates
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.ItemsRead = totalRead(counter)
	res.Stats.BytesRead = totalBytes(counter)
	res.Stats.Duration = time.Since(start)
	sort.Slice(res.Satisfied, func(i, j int) bool {
		if res.Satisfied[i].Dep != res.Satisfied[j].Dep {
			return res.Satisfied[i].Dep.String() < res.Satisfied[j].Dep.String()
		}
		return res.Satisfied[i].Ref.String() < res.Satisfied[j].Ref.String()
	})
}

// mergeCount is one candidate's accumulating verdict: how many of the
// dependent's distinct values found a counterpart, how many did not, and
// whether the miss budget is exhausted (counts freeze there).
type mergeCount struct {
	matched, missing int
	dropped          bool
}

// mergeRun is runMerge's outcome: the distinct candidates in
// first-appearance order, each one's counts summed over every value
// range, and the merge's work statistics.
type mergeRun struct {
	cands  []Candidate
	counts []mergeCount
	stats  Stats
}

// runMerge decides the distinct (dep, ref) pairs of cands at threshold
// sigma. With shards ≤ 1 and no explicit boundaries it runs one merge
// straight over src. Otherwise it merges S ranges — the given
// boundaries, or a plan from the attributes' KMV samples when every
// involved attribute has one, else from their min/max — on a pool of
// workers; a dependent with no values inside a range scores 0/0 there
// and skips that range's merge, and a budget exhausted in any one range
// is exhausted globally. Stats.MaxOpenFiles is then the largest single
// range's peak.
func runMerge(cands []Candidate, sigma float64, src RangeSource, shards, workers int, boundaries []string) (*mergeRun, error) {
	run := &mergeRun{cands: dedupCandidates(cands)}
	run.counts = make([]mergeCount, len(run.cands))
	if shards <= 1 && boundaries == nil {
		m := &merge{src: src, sigma: sigma}
		defer m.closeAll()
		if err := m.run(run.cands, run.counts); err != nil {
			return nil, err
		}
		run.stats = m.stats
		return run, nil
	}

	plan, err := resolveShardRanges(run.cands, src, shards, boundaries)
	if err != nil {
		return nil, err
	}
	ranges := plan.ranges
	// Shards share nothing but the atomic read counter: each opens its
	// own cursors and keeps its own candidate state, so the pool is
	// race-free by construction.
	type shardOutcome struct {
		idx    []int // run.cands index of each shard candidate
		counts []mergeCount
		stats  Stats
	}
	outcomes := make([]shardOutcome, len(ranges))
	shardReads := make([]atomic.Int64, len(ranges))
	shardTimes := make([]time.Duration, len(ranges))
	err = runShards(len(ranges), workers, func(i int) error {
		shardStart := time.Now()
		var out shardOutcome
		var shardCands []Candidate
		for j, c := range run.cands {
			if !attrOutsideRange(c.Dep, ranges[i]) {
				out.idx = append(out.idx, j)
				shardCands = append(shardCands, c)
			}
		}
		out.counts = make([]mergeCount, len(shardCands))
		m := &merge{src: shardSource{src: src, bounds: ranges[i], reads: &shardReads[i]}, sigma: sigma}
		err := m.run(shardCands, out.counts)
		m.closeAll()
		shardTimes[i] = time.Since(shardStart)
		out.stats = m.stats
		outcomes[i] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, out := range outcomes {
		run.stats.Comparisons += out.stats.Comparisons
		run.stats.FilesOpened += out.stats.FilesOpened
		run.stats.MaxOpenFiles = max(run.stats.MaxOpenFiles, out.stats.MaxOpenFiles)
		for k, j := range out.idx {
			total := &run.counts[j]
			total.matched += out.counts[k].matched
			total.missing += out.counts[k].missing
			total.dropped = total.dropped || out.counts[k].dropped
		}
	}
	run.stats.ShardPlanner = plan.planner
	run.stats.ShardPlanFallback = plan.fallback
	run.stats.ShardItemsRead = make([]int64, len(ranges))
	for i := range shardReads {
		run.stats.ShardItemsRead[i] = shardReads[i].Load()
	}
	run.stats.ShardDurations = shardTimes
	return run, nil
}

// dedupCandidates drops repeated (dep, ref) pairs, so every pair is
// decided, counted and reported exactly once.
func dedupCandidates(cands []Candidate) []Candidate {
	seen := make(map[[2]int]bool, len(cands))
	out := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		key := [2]int{c.Dep.ID, c.Ref.ID}
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}

// smEntry is one heap element: an attribute's current merge-front value
// and its position in the merge.
type smEntry struct {
	val string
	id  int
}

// smHeap is a min-heap on (value, attribute position); the position
// tie-break (ascending attribute ID) makes group processing order
// deterministic.
type smHeap []smEntry

func (h smHeap) Len() int { return len(h) }
func (h smHeap) Less(i, j int) bool {
	if h[i].val != h[j].val {
		return h[i].val < h[j].val
	}
	return h[i].id < h[j].id
}
func (h smHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *smHeap) Push(x interface{}) { *h = append(*h, x.(smEntry)) }
func (h *smHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// merge is the state machine of one value range's heap merge. It
// addresses every involved attribute by its position in ascending ID
// order, so the per-value bookkeeping indexes slices, not maps.
type merge struct {
	src     CursorSource
	sigma   float64
	attrs   []*Attribute
	cursors []Cursor
	// undecided holds, per dependent position, the undecided candidates'
	// counts keyed by referenced position.
	undecided []map[int]*mergeCount
	// budget is each dependent's miss allowance at the threshold.
	budget []int
	// refCount counts, per attribute, the dependents still tracking it as
	// a referenced side; it drives early cursor close.
	refCount []int
	h        smHeap
	stats    Stats
	open     int
}

// run decides the distinct candidates cands, accumulating each one's
// counts into the parallel slice counts.
func (m *merge) run(cands []Candidate, counts []mergeCount) error {
	m.attrs = involvedAttributes(cands)
	n := len(m.attrs)
	pos := make(map[int]int, n)
	for i, a := range m.attrs {
		pos[a.ID] = i
	}
	m.cursors = make([]Cursor, n)
	m.undecided = make([]map[int]*mergeCount, n)
	m.budget = make([]int, n)
	m.refCount = make([]int, n)
	for i, c := range cands {
		d, r := pos[c.Dep.ID], pos[c.Ref.ID]
		if m.undecided[d] == nil {
			m.undecided[d] = make(map[int]*mergeCount)
			m.budget[d] = missBudget(m.sigma, c.Dep.Distinct)
		}
		m.undecided[d][r] = &counts[i]
		m.refCount[r]++
	}

	// Open one cursor per involved attribute and seed the heap with each
	// first value, in ID order for determinism. An empty dependent
	// settles its candidates with zero counts (∅ ⊆ r); an empty
	// referenced stream simply never joins a merge group, so every
	// dependent value scores a miss against it.
	for i, a := range m.attrs {
		cur, err := m.src.Open(a)
		if err != nil {
			return err
		}
		m.cursors[i] = cur
		// Canned empty cursors (a shard's view of an attribute with no
		// values in range) open no file and must not distort the Sec 4.2
		// open-files metric.
		if _, empty := cur.(emptyCursor); !empty {
			m.open++
			m.stats.FilesOpened++
			m.stats.MaxOpenFiles = max(m.stats.MaxOpenFiles, m.open)
		}
	}
	for i := range m.attrs {
		if err := m.advance(i); err != nil {
			return err
		}
	}

	group := make([]int, 0, n)
	members := make([]bool, n)
	for len(m.h) > 0 {
		// Collect the merge group: every attribute whose stream contains
		// the minimum value. Lazily dropped entries (closed cursors) are
		// discarded here.
		group = group[:0]
		v := m.h[0].val
		for len(m.h) > 0 && m.h[0].val == v {
			e := heap.Pop(&m.h).(smEntry)
			if m.cursors[e.id] != nil {
				group = append(group, e.id)
			}
		}
		for _, i := range group {
			members[i] = true
		}
		// Score each dependent's undecided candidates against the group:
		// the merge-front value either occurs in the referenced stream
		// (matched) or provably does not (missing).
		for _, d := range group {
			cs := m.undecided[d]
			if len(cs) == 0 {
				continue
			}
			m.stats.Comparisons += int64(len(cs))
			for r, c := range cs {
				if members[r] {
					c.matched++
					continue
				}
				c.missing++
				if c.missing > m.budget[d] {
					c.dropped = true
					m.drop(d, r)
				}
			}
			if len(cs) == 0 {
				m.maybeClose(d)
			}
		}
		for _, i := range group {
			members[i] = false
		}
		for _, i := range group {
			if err := m.advance(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// advance pushes attribute i's next value, or finishes its stream: a
// dependent's end freezes its surviving candidates' counts. It is a
// no-op on cursors already closed early (an empty dependent settling its
// candidates during seeding may retire a referenced cursor first).
func (m *merge) advance(i int) error {
	cur := m.cursors[i]
	if cur == nil {
		return nil
	}
	if v, ok := cur.Next(); ok {
		heap.Push(&m.h, smEntry{val: v, id: i})
		return nil
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if cs := m.undecided[i]; len(cs) > 0 {
		decided := make([]int, 0, len(cs))
		for r := range cs {
			decided = append(decided, r)
		}
		sort.Ints(decided)
		for _, r := range decided {
			m.drop(i, r)
		}
	}
	m.closeCursor(i)
	return nil
}

// drop retires the candidate d ⊆ r from the undecided set (its counts
// stay with the caller) and closes r's cursor when nothing references it
// any longer.
func (m *merge) drop(d, r int) {
	cs := m.undecided[d]
	if cs[r] == nil {
		return
	}
	delete(cs, r)
	m.refCount[r]--
	if d != r {
		m.maybeClose(r)
	}
}

// maybeClose closes attribute i's cursor once it is needed neither as a
// dependent (undecided candidates) nor as a referenced side. The heap
// entry is dropped lazily.
func (m *merge) maybeClose(i int) {
	if len(m.undecided[i]) == 0 && m.refCount[i] == 0 {
		m.closeCursor(i)
	}
}

func (m *merge) closeCursor(i int) {
	if cur := m.cursors[i]; cur != nil {
		cur.Close()
		m.cursors[i] = nil
		if _, empty := cur.(emptyCursor); !empty {
			m.open--
		}
	}
}

func (m *merge) closeAll() {
	for i := range m.cursors {
		m.closeCursor(i)
	}
}

// shardSource views a RangeSource through one shard's bounds, giving the
// per-shard merge an ordinary CursorSource. Attributes whose
// [MinCanonical, MaxCanonical] span provably misses the shard's range
// are served a canned empty cursor without touching the underlying
// source at all — value domains are typically localized (integers here,
// accession strings there), so most shards open only a fraction of the
// attributes.
type shardSource struct {
	src    RangeSource
	bounds valfile.Range
	// reads tallies the items this shard read — the global Counter
	// cannot attribute reads to shards once they run concurrently.
	reads *atomic.Int64
}

func (s shardSource) Open(a *Attribute) (Cursor, error) {
	if a.Distinct > 0 && attrOutsideRange(a, s.bounds) {
		return emptyCursor{}, nil
	}
	cur, err := s.src.OpenRange(a, s.bounds)
	if err != nil {
		return nil, err
	}
	return &tallyCursor{Cursor: cur, reads: s.reads}, nil
}

// tallyCursor counts delivered values into a per-shard tally on top of
// whatever global counter the underlying source already feeds.
type tallyCursor struct {
	Cursor
	reads *atomic.Int64
}

func (c *tallyCursor) Next() (string, bool) {
	v, ok := c.Cursor.Next()
	if ok {
		c.reads.Add(1)
	}
	return v, ok
}

// attrOutsideRange reports whether the attribute's catalog statistics
// prove it has no values inside bounds: either the value set is empty,
// or its [MinCanonical, MaxCanonical] span misses the range. The
// statistics come from the same extraction pipeline as the value
// streams, exactly like the Sec 4.1 max-value pretest.
func attrOutsideRange(a *Attribute, bounds valfile.Range) bool {
	if a.Distinct == 0 {
		return true
	}
	return a.MaxCanonical < bounds.Lo || (bounds.HasHi && a.MinCanonical >= bounds.Hi)
}

// emptyCursor is an always-exhausted cursor: the in-shard view of an
// attribute with no values in the shard's range.
type emptyCursor struct{}

func (emptyCursor) Next() (string, bool) { return "", false }
func (emptyCursor) Err() error           { return nil }
func (emptyCursor) Close() error         { return nil }

// shardPlan is resolveShardRanges' outcome: the ranges a sharded merge
// runs over, plus the planner name and any fallback note for Stats — a
// plan that collapsed to fewer shards than requested is recorded, not
// hidden.
type shardPlan struct {
	ranges   []valfile.Range
	planner  string
	fallback string
}

// resolveShardRanges validates the explicit boundaries, or plans S-1 of
// them, and turns them into the half-open ranges the merge runs over.
// Planning uses the attributes' KMV value samples when every involved
// attribute carries one (equal estimated mass per shard) and their
// min/max order statistics otherwise (equal key range).
func resolveShardRanges(cands []Candidate, src RangeSource, shards int, boundaries []string) (shardPlan, error) {
	plan := shardPlan{planner: "explicit"}
	bounds := boundaries
	if bounds == nil {
		if kmvBounds, haveSamples := kmvBoundaries(cands, shards); haveSamples {
			plan.planner = "kmv"
			bounds = kmvBounds
			if len(bounds) < shards-1 {
				plan.fallback = fmt.Sprintf("kmv sample supports only %d of %d shards (skewed or tiny value pool)", len(bounds)+1, shards)
			}
		} else {
			plan.planner = "minmax"
			var err error
			bounds, err = shardBoundaries(cands, src, shards)
			if err != nil {
				return shardPlan{}, err
			}
			if len(bounds) == 0 {
				// The dedup/quantile path collapses to one shard when the
				// pooled sample holds at most one distinct value (all
				// attribute min == max). Record it instead of hiding it.
				plan.fallback = fmt.Sprintf("boundary sample collapsed: 1 shard instead of %d (≤1 distinct sample value)", shards)
			}
		}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return shardPlan{}, fmt.Errorf("ind: shard boundaries must be strictly ascending, got %q after %q", bounds[i], bounds[i-1])
		}
	}
	plan.ranges = shardRanges(bounds)
	return plan, nil
}

// involvedAttributes lists the attributes on either side of cands in ID
// order.
func involvedAttributes(cands []Candidate) []*Attribute {
	byID := make(map[int]*Attribute)
	for _, c := range cands {
		byID[c.Dep.ID] = c.Dep
		byID[c.Ref.ID] = c.Ref
	}
	out := make([]*Attribute, 0, len(byID))
	for _, a := range byID {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// kmvBoundaries plans equal-estimated-mass boundaries from the involved
// attributes' KMV value samples. The second return is false when any
// non-empty attribute lacks a sample (sketches absent, built hash-only,
// or loaded from the pre-sample disk format) — planning then falls back
// to min/max rather than mixing calibrated and blind estimates.
func kmvBoundaries(cands []Candidate, shards int) ([]string, bool) {
	var samples []sketch.WeightedSample
	for _, a := range involvedAttributes(cands) {
		if a.Distinct <= 0 && a.NonNull <= 0 {
			continue // empty value set contributes no mass
		}
		if a.Sketch == nil || len(a.Sketch.Sample()) == 0 {
			return nil, false
		}
		samples = append(samples, sketch.WeightedSample{
			Values: a.Sketch.Sample(),
			Weight: float64(a.Distinct),
		})
	}
	if len(samples) == 0 {
		return nil, false
	}
	return sketch.PlanBoundaries(samples, shards), true
}

// shardBoundaries picks at most shards-1 strictly ascending boundary
// values from cheap order statistics of the candidate attributes: every
// attribute's canonical minimum and maximum plus, when the source
// implements BoundarySampler, spill-run fronts. Quantiles of the pooled
// sample approximate an even split of the merged value space; skewed
// samples collapse into fewer (still correct) shards.
func shardBoundaries(cands []Candidate, src RangeSource, shards int) ([]string, error) {
	sampler, _ := src.(BoundarySampler)
	var sample []string
	for _, a := range involvedAttributes(cands) {
		if a.Distinct > 0 || a.NonNull > 0 {
			sample = append(sample, a.MinCanonical, a.MaxCanonical)
		}
		if sampler != nil {
			vs, err := sampler.SampleBounds(a, 4)
			if err != nil {
				return nil, err
			}
			sample = append(sample, vs...)
		}
	}
	sort.Strings(sample)
	sample = dedupSorted(sample)
	if len(sample) == 0 {
		return nil, nil
	}

	var bounds []string
	for i := 1; i < shards; i++ {
		b := sample[i*len(sample)/shards]
		// Quantiles of a small sample may repeat; and a boundary equal to
		// the global minimum would only produce an empty first shard.
		if b > sample[0] && (len(bounds) == 0 || b > bounds[len(bounds)-1]) {
			bounds = append(bounds, b)
		}
	}
	return bounds, nil
}

// dedupSorted removes duplicates from a sorted slice in place.
func dedupSorted(vals []string) []string {
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// shardRanges turns S-1 ascending boundaries into S half-open ranges
// covering the whole value space.
func shardRanges(bounds []string) []valfile.Range {
	ranges := make([]valfile.Range, 0, len(bounds)+1)
	lo := ""
	for _, b := range bounds {
		ranges = append(ranges, valfile.Range{Lo: lo, Hi: b, HasHi: true})
		lo = b
	}
	return append(ranges, valfile.Range{Lo: lo})
}

// runShards runs fn(i) for every index below n on a bounded worker pool
// (zero workers selects min(n, GOMAXPROCS)), returning the first error.
// Remaining indexes are skipped after a failure.
func runShards(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errMu.Lock()
				failed := firstErr != nil
				errMu.Unlock()
				if failed {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
