package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spider"
	"spider/internal/extsort"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// layerTotals accumulates the counts the traced calls observe at each
// layer boundary. Durations come from the spans.
type layerTotals struct {
	valuesScanned, valuesIn, distinctOut, spillRuns atomic.Int64
	filesCreated, bytesWritten, sketchBytes         atomic.Int64
	bytesRead                                       atomic.Int64

	mu                   sync.Mutex
	creates, opens       samples
	candidates, pruned   int64
	pretestIn            int64
	itemsRead, mergeRead int64
	comparisons          int64
	satisfied, tested    int64
	maxOpen              int
	naryCands            [naryMaxArity + 1]int64
	naryItems            int64
}

// traced generates the workload's dataset (timed into setup), then runs
// its discovery with a span around every call into a layer, and returns
// the verdicts and the discovery's wall time.
func (b batchSpec) traced(seed int64, dir string, tr *tracer, lt *layerTotals, setup *samples) (verdicts, time.Duration, error) {
	t0 := time.Now()
	if b.nary {
		db := b.gen(seed)
		setup.add(time.Since(t0))
		runtime.GC()
		return tracedNary(db, dir, tr, lt)
	}
	rel := b.genRel(seed)
	setup.add(time.Since(t0))
	runtime.GC()
	return tracedUnary(rel, dir, tr, lt)
}

// tracedUnary reproduces spider.FindINDs with Algorithm SpiderMerge,
// SketchPrefilter and a work directory — extraction into text value
// files with sketch sidecars on a GOMAXPROCS worker pool, candidate
// generation, the sketch pre-filter and one merge — from the layers'
// own entry points, so each can carry a span.
func tracedUnary(rel *relstore.Database, dir string, tr *tracer, lt *layerTotals) (verdicts, time.Duration, error) {
	start := time.Now()
	root := tr.begin("discover", -1)

	sp := tr.begin("relstore.collect", root)
	attrs, err := ind.CollectAttributes(rel)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}

	fs := store.NewFS(dir, valfile.FormatText)
	ds := &tracedDataset{Dataset: fs, lt: lt}
	sp = tr.begin("ind.export", root)
	err = exportTraced(rel, attrs, fs, ds, dir, tr, sp, lt)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}

	sp = tr.begin("ind.candidates", root)
	cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{})
	tr.end(sp)
	sp = tr.begin("sketch.pretest", root)
	kept, pst := ind.SketchPretest(cands, ind.SketchPretestOptions{ExactRefutation: true})
	tr.end(sp)

	var counter valfile.ReadCounter
	sp = tr.begin("ind.merge", root)
	res, err := ind.SpiderMerge(kept, ind.SpiderMergeOptions{Counter: &counter, Store: ds})
	tr.end(sp)
	tr.end(root)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	written, _, err := dirCensus(dir)
	if err != nil {
		return nil, 0, err
	}
	lt.bytesWritten.Add(written)

	lt.mu.Lock()
	lt.candidates += int64(len(cands))
	lt.pretestIn += int64(pst.Candidates)
	lt.pruned += int64(pst.Pruned)
	lt.itemsRead += res.Stats.ItemsRead
	lt.mergeRead += res.Stats.BytesRead
	lt.comparisons += res.Stats.Comparisons
	lt.satisfied += int64(res.Stats.Satisfied)
	lt.tested += int64(res.Stats.Candidates)
	if res.Stats.MaxOpenFiles > lt.maxOpen {
		lt.maxOpen = res.Stats.MaxOpenFiles
	}
	lt.mu.Unlock()

	// A full read of every stored value set, outside the discovery span:
	// the merge interleaves reads with comparisons, so this is where the
	// store's read cost is measured on its own.
	sweep := tr.begin("store.read_sweep", -1)
	err = readSweep(fs, attrs, lt)
	tr.end(sweep)
	if err != nil {
		return nil, 0, err
	}
	return internalVerdicts(res.Satisfied), wall, nil
}

// exportTraced stages every attribute's sorted distinct value set and
// sketch into ds as ind.ExportAttributes does — same keys, sections and
// spill directory — on the library's default worker pool.
func exportTraced(rel *relstore.Database, attrs []*ind.Attribute, fs *store.FS, ds store.Dataset, dir string, tr *tracer, parent int, lt *layerTotals) error {
	sortCfg := extsort.Config{TempDir: dir}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(attrs) {
					return
				}
				if err := exportOne(rel, attrs[i], fs, ds, sortCfg, tr, parent, lt); err != nil {
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

// collectSink keeps the sorter's output for the layers after it.
type collectSink struct{ vals []string }

func (s *collectSink) Append(v string) error {
	s.vals = append(s.vals, v)
	return nil
}

func exportOne(rel *relstore.Database, a *ind.Attribute, fs *store.FS, ds store.Dataset, sortCfg extsort.Config, tr *tracer, parent int, lt *layerTotals) error {
	t := rel.Table(a.Ref.Table)
	if t == nil {
		return fmt.Errorf("unknown table %q", a.Ref.Table)
	}
	sp := tr.begin("relstore.scan", parent)
	vals := make([]string, 0, a.NonNull)
	_, err := t.ScanColumn(a.Ref.Column, func(v value.Value) {
		if !v.IsNull() {
			vals = append(vals, v.Canonical())
		}
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	lt.valuesScanned.Add(int64(len(vals)))

	sp = tr.begin("extsort.sort", parent)
	sorter := extsort.New(sortCfg)
	for _, v := range vals {
		if err = sorter.Add(v); err != nil {
			break
		}
	}
	var sink collectSink
	var n int
	var max string
	var meta extsort.RunMeta
	if err == nil {
		n, max, meta, err = sorter.DrainTo(&sink, nil)
	} else {
		sorter.Discard()
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	lt.valuesIn.Add(meta.Added)
	lt.distinctOut.Add(int64(n))
	lt.spillRuns.Add(int64(meta.SpillRuns))
	if n != a.Distinct {
		return fmt.Errorf("%s: sorted %d distinct values, stats say %d", a.Ref, n, a.Distinct)
	}

	sp = tr.begin("sketch.build", parent)
	b := sketch.NewBuilder(sketch.Config{}, a.Distinct)
	for _, v := range sink.vals {
		b.Add(v)
	}
	sk := b.Finish()
	var enc bytes.Buffer
	err = sk.Encode(&enc)
	tr.end(sp)
	if err != nil {
		return err
	}
	lt.sketchBytes.Add(sk.Bytes())

	key := fmt.Sprintf("%05d_%s_%s.val", a.ID, fileSafe(a.Ref.Table), fileSafe(a.Ref.Column))
	sp = tr.begin("store.write", parent)
	err = writeValueSet(ds, key, sink.vals, meta, enc.Bytes())
	tr.end(sp)
	if err != nil {
		return err
	}
	lt.filesCreated.Add(1)
	a.Key, a.Path, a.MaxCanonical, a.Sketch = key, fs.Path(key), max, sk
	return nil
}

// writeValueSet stages one sorted value set with its run metadata and
// sketch sections.
func writeValueSet(ds store.Dataset, key string, vals []string, meta extsort.RunMeta, sk []byte) error {
	w, err := ds.Create(key)
	if err != nil {
		return err
	}
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.SetSection(valfile.RunMetaSection, meta.Encode()); err != nil {
		w.Close()
		return err
	}
	if err := w.SetSection(valfile.SketchSection, sk); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// fileSafe maps a table or column name onto the characters the
// library's value-file names keep, as ind.ExportAttributes does.
func fileSafe(s string) string {
	out := []rune(s)
	for i, r := range out {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// readSweep reads every exported value set once, end to end.
func readSweep(ds store.Dataset, attrs []*ind.Attribute, lt *layerTotals) error {
	var counter valfile.ReadCounter
	for _, a := range attrs {
		if a.StoreKey() == "" {
			continue
		}
		cur, err := ds.Open(a.StoreKey(), &counter)
		if err != nil {
			return err
		}
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		err = cur.Err()
		cur.Close()
		if err != nil {
			return err
		}
	}
	lt.bytesRead.Add(counter.TotalBytes())
	return nil
}

// tracedDataset times the store's Create and Open/OpenRange calls and counts the
// bytes its writers produce.
type tracedDataset struct {
	store.Dataset
	lt *layerTotals
}

func (d *tracedDataset) Create(key string) (store.ValueWriter, error) {
	t0 := time.Now()
	w, err := d.Dataset.Create(key)
	took := time.Since(t0)
	d.lt.mu.Lock()
	d.lt.creates.add(took)
	d.lt.mu.Unlock()
	return w, err
}

func (d *tracedDataset) Open(key string, counter *valfile.ReadCounter) (store.Cursor, error) {
	return d.OpenRange(key, counter, valfile.Range{})
}

func (d *tracedDataset) OpenRange(key string, counter *valfile.ReadCounter, bounds valfile.Range) (store.Cursor, error) {
	t0 := time.Now()
	c, err := d.Dataset.OpenRange(key, counter, bounds)
	took := time.Since(t0)
	d.lt.mu.Lock()
	d.lt.opens.add(took)
	d.lt.mu.Unlock()
	return c, err
}

// tracedNary runs spider.FindNaryINDs and turns its LevelProgress
// reports, timed with the benchmark's clock, into one span per level.
func tracedNary(db *spider.Database, dir string, tr *tracer, lt *layerTotals) (verdicts, time.Duration, error) {
	start := time.Now()
	root := tr.begin("discover", -1)
	var mu sync.Mutex
	last := start
	opts := spider.NaryOptions{Algorithm: spider.SpiderMerge, MaxArity: naryMaxArity, WorkDir: dir,
		LevelProgress: func(p spider.NaryLevelProgress) {
			mu.Lock()
			defer mu.Unlock()
			now := time.Now()
			tr.record(fmt.Sprintf("ind.nary_level%d", p.Arity), root, last, now)
			last = now
		}}
	inds, st, err := spider.FindNaryINDs(db, opts)
	tr.end(root)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	lt.mu.Lock()
	for k := 2; k < len(st.CandidatesByArity) && k <= naryMaxArity; k++ {
		lt.naryCands[k] += int64(st.CandidatesByArity[k])
	}
	lt.naryItems += st.ItemsRead
	lt.mu.Unlock()
	return naryVerdicts(inds), wall, nil
}

// put reports the per-layer metrics as means per traced call, from the
// counts and the spans of calls traced calls.
func (lt *layerTotals) put(m map[string]float64, spans []span, calls int) {
	if calls == 0 {
		return
	}
	n := float64(calls)
	perCall := func(v int64) float64 { return float64(v) / n }
	spanMS := func(name string) float64 {
		return durationsOf(spans, name).sum(time.Millisecond) / n
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()

	var cov []float64
	for _, s := range spans {
		if s.Name == "discover" {
			cov = append(cov, childCoverage(spans, s.ID))
		}
	}
	m["trace.coverage"] = median(sortedCopy(cov))
	for mod, d := range selfTimes(spans) {
		m[mod+".self_ms"] = float64(d) / float64(time.Millisecond) / n
	}

	if lt.naryItems > 0 {
		for k := 1; k <= naryMaxArity; k++ {
			m[fmt.Sprintf("ind.nary_level%d_ms", k)] = spanMS(fmt.Sprintf("ind.nary_level%d", k))
		}
		m["ind.nary_candidates_l2"] = perCall(lt.naryCands[2])
		m["ind.nary_candidates_l3"] = perCall(lt.naryCands[3])
		m["ind.nary_items_read"] = perCall(lt.naryItems)
		return
	}

	m["relstore.collect_ms"] = spanMS("relstore.collect")
	m["relstore.values_scanned"] = perCall(lt.valuesScanned.Load())
	m["extsort.sort_ms"] = spanMS("extsort.sort")
	m["extsort.values_in"] = perCall(lt.valuesIn.Load())
	m["extsort.distinct_out"] = perCall(lt.distinctOut.Load())
	m["extsort.dedup_ratio"] = ratio(float64(lt.distinctOut.Load()), float64(lt.valuesIn.Load()))
	m["extsort.spill_runs"] = perCall(lt.spillRuns.Load())
	m["store.create_us_p50"] = lt.creates.pct(50, time.Microsecond)
	m["store.write_ms"] = spanMS("store.write")
	m["store.files_created"] = perCall(lt.filesCreated.Load())
	m["store.bytes_written"] = perCall(lt.bytesWritten.Load())
	m["store.open_us_p50"] = lt.opens.pct(50, time.Microsecond)
	m["store.read_ms"] = spanMS("store.read_sweep")
	m["store.bytes_read"] = perCall(lt.bytesRead.Load())
	m["sketch.build_ms"] = spanMS("sketch.build")
	m["sketch.bytes"] = perCall(lt.sketchBytes.Load())
	m["sketch.pretest_ms"] = spanMS("sketch.pretest")
	m["sketch.pruned"] = perCall(lt.pruned)
	m["sketch.prune_ratio"] = ratio(float64(lt.pruned), float64(lt.pretestIn))
	m["ind.export_ms"] = spanMS("ind.export")
	m["ind.candidates_ms"] = spanMS("ind.candidates")
	m["ind.candidates"] = perCall(lt.candidates)
	m["ind.merge_ms"] = spanMS("ind.merge")
	m["ind.merge_items_read"] = perCall(lt.itemsRead)
	m["ind.merge_bytes_read"] = perCall(lt.mergeRead)
	m["ind.merge_comparisons"] = perCall(lt.comparisons)
	m["ind.merge_items_per_s"] = ratio(float64(lt.itemsRead), durationsOf(spans, "ind.merge").sum(time.Second))
	m["ind.merge_satisfied_ratio"] = ratio(float64(lt.satisfied), float64(lt.tested))
	m["ind.merge_max_open_files"] = float64(lt.maxOpen)
}
