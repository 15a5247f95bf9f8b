package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"spider"
	"spider/internal/datagen"
	"spider/internal/relstore"
	"spider/internal/value"
)

// batchSpec describes one batch-discovery workload: how to generate its
// dataset through the public API and, with the same seed, as the
// relational store the traced pipeline and the oracle work on.
type batchSpec struct {
	gen    func(seed int64) *spider.Database
	genRel func(seed int64) *relstore.Database
	nary   bool
}

var (
	widePDB = batchSpec{
		gen: func(seed int64) *spider.Database {
			return spider.GeneratePDB(spider.DatasetConfig{Seed: seed, Scale: 1})
		},
		genRel: func(seed int64) *relstore.Database {
			return datagen.PDB(datagen.PDBConfig{Seed: seed, Scale: 1})
		},
	}
	deepUniProt = batchSpec{
		gen: func(seed int64) *spider.Database {
			return spider.GenerateUniProt(spider.DatasetConfig{Seed: seed, Scale: 25})
		},
		genRel: func(seed int64) *relstore.Database {
			return datagen.UniProt(datagen.UniProtConfig{Seed: seed, Scale: 25})
		},
	}
	narySCOP = batchSpec{
		gen: func(seed int64) *spider.Database {
			return spider.GenerateSCOP(spider.DatasetConfig{Seed: seed, Scale: 10})
		},
		genRel: func(seed int64) *relstore.Database {
			return datagen.SCOP(datagen.SCOPConfig{Seed: seed, Scale: 10})
		},
		nary: true,
	}
)

func runWidePDB(cfg config) (*outcome, error)     { return runBatch(cfg, widePDB) }
func runDeepUniProt(cfg config) (*outcome, error) { return runBatch(cfg, deepUniProt) }
func runNarySCOP(cfg config) (*outcome, error)    { return runBatch(cfg, narySCOP) }

// naryMaxArity bounds the n-ary workload's levelwise search.
const naryMaxArity = 4

// discover runs the workload's untraced library call on db with its work
// directory in dir.
func (b batchSpec) discover(db *spider.Database, dir string) (verdicts, error) {
	if b.nary {
		inds, _, err := spider.FindNaryINDs(db, spider.NaryOptions{Algorithm: spider.SpiderMerge, MaxArity: naryMaxArity, WorkDir: dir})
		return naryVerdicts(inds), err
	}
	res, err := spider.FindINDs(db, spider.Options{Algorithm: spider.SpiderMerge, SketchPrefilter: true, WorkDir: dir})
	if err != nil {
		return nil, err
	}
	return unaryVerdicts(res.INDs), nil
}

// oracle computes the reference verdicts with the in-memory engine.
func (b batchSpec) oracle(db *spider.Database) (verdicts, error) {
	if b.nary {
		inds, _, err := spider.FindNaryINDs(db, spider.NaryOptions{Algorithm: spider.InMemory, MaxArity: naryMaxArity})
		return naryVerdicts(inds), err
	}
	res, err := spider.FindINDs(db, spider.Options{Algorithm: spider.InMemory})
	if err != nil {
		return nil, err
	}
	return unaryVerdicts(res.INDs), nil
}

// runBatch times discovery calls, each on a freshly generated database,
// until the configured duration has passed. Generation and a full GC run
// before every call, untimed, so every sample pays the cold column-stats
// scan a user pays on every indfind run.
func runBatch(cfg config, b batchSpec) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	if err := initPoller(cfg.scratch); err != nil {
		return nil, err
	}

	// Set-up: the dataset, the oracle's verdicts and the input size.
	var setup samples
	t0 := time.Now()
	db := b.gen(cfg.seed)
	setup.add(time.Since(t0))
	want, err := b.oracle(db)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	in := measureInput(b.genRel(cfg.seed))
	db = nil

	tmpBefore, err := tmpEntries()
	if err != nil {
		return nil, err
	}
	fdBefore, err := openFDs()
	if err != nil {
		return nil, err
	}

	var (
		calls, traced samples
		spaceAmp      []float64
		peaks         []float64
		untraced      verdicts
		leakedFiles   int
		tr            *tracer
		layers        = &layerTotals{}
		mem           memDelta
	)
	if cfg.trace {
		tr = newTracer()
	}
	// At least one call of each kind, however short the run.
	minCalls := 1
	if cfg.trace {
		minCalls = 2
	}
	deadline := time.Now().Add(cfg.duration)
	for i := 0; i < minCalls || time.Now().Before(deadline); i++ {
		dir := workDir(cfg, "call", i)
		tracedCall := cfg.trace && i%2 == 1
		var got verdicts
		if tracedCall {
			var d time.Duration
			got, d, err = b.traced(cfg.seed, dir, tr, layers, &setup)
			traced.add(d)
		} else {
			t0 := time.Now()
			db := b.gen(cfg.seed)
			setup.add(time.Since(t0))
			runtime.GC()
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
			mem.begin()
			t1 := time.Now()
			got, err = b.discover(db, dir)
			calls.add(time.Since(t1))
			mem.end()
			rss, rerr := peakRSSMiB()
			if rerr != nil {
				return nil, rerr
			}
			peaks = append(peaks, rss)
		}
		out.attempted++
		switch {
		case err != nil:
			out.fail("call %d: %v", i, err)
		default:
			if diff := want.diff(got); diff != "" {
				out.fail("call %d: verdicts differ from the oracle: %s", i, diff)
			}
			if !tracedCall {
				untraced = got
			} else if diff := untraced.diff(got); diff != "" {
				out.fail("call %d: traced verdicts differ from the untraced call's: %s", i, diff)
			}
		}
		bytes, stray, cerr := dirCensus(dir)
		if cerr != nil && !os.IsNotExist(cerr) {
			return nil, cerr
		}
		leakedFiles += len(stray)
		if len(stray) > 0 {
			out.fail("call %d: %d stray files left in the work directory, e.g. %s", i, len(stray), stray[0])
		}
		spaceAmp = append(spaceAmp, float64(bytes)/float64(in.canonicalBytes))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	leakedFDs, err := settledFDs(fdBefore)
	if err != nil {
		return nil, err
	}
	tmpAfter, err := tmpEntries()
	if err != nil {
		return nil, err
	}
	strayTmp := newEntries(tmpBefore, tmpAfter)
	leakedFiles += len(strayTmp)
	if len(strayTmp) > 0 {
		out.fail("%d entries left in the temporary directory, e.g. %s", len(strayTmp), strayTmp[0])
	}
	if leakedFDs > 0 {
		out.fail("%d file descriptors left open", leakedFDs)
	}

	m := out.metrics
	m["setup_s"] = setup.pct(50, time.Second)
	m["latency_ms_p50"] = calls.pct(50, time.Millisecond)
	m["latency_ms_p90"] = calls.pct(90, time.Millisecond)
	// Work completed per second at the stated input size: non-null input
	// values taken from relation scan to verdicts per second, at the
	// median call.
	m["throughput_per_s"] = float64(in.nonNull) / calls.pct(50, time.Second)
	m["peak_rss_mb"] = median(sortedCopy(peaks))
	m["space_amp"] = median(sortedCopy(spaceAmp))
	m["ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)

	if cfg.trace {
		m["discover_ms_p50"] = m["latency_ms_p50"]
		m["fail_ratio"] = float64(out.failed) / float64(out.attempted)
		m["samples"] = float64(len(calls.d))
		putTail(m, &calls)
		m["store.leaked_files"] = float64(leakedFiles)
		m["store.leaked_fds"] = float64(leakedFDs)
		mem.put(m, len(calls.d))
		layers.put(m, tr.snapshot(), len(traced.d))
		m["trace.overhead"] = traced.pct(50, time.Millisecond)/calls.pct(50, time.Millisecond) - 1
		if err := tr.writeFile(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
			return nil, err
		}
		fillZero(m)
	}
	return out, nil
}

// putTail reports the highest percentile with at least ten samples
// beyond it, and which percentile that is.
func putTail(m map[string]float64, s *samples) {
	p := tailPercentile(len(s.d))
	m["tail_pct"] = p
	if p > 0 {
		m["latency_ms_tail"] = s.pct(p, time.Millisecond)
	}
}

// fillZero reports 0 for every per-layer metric whose layer did not run.
func fillZero(m map[string]float64) {
	for _, s := range perLayer {
		if _, ok := m[s.name]; !ok {
			m[s.name] = 0
		}
	}
}

// memDelta accumulates the runtime's GC and allocation counters over the
// untraced calls.
type memDelta struct {
	before                  runtime.MemStats
	gcs, pauseNs, allocated uint64
}

func (d *memDelta) begin() { runtime.ReadMemStats(&d.before) }

func (d *memDelta) end() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	d.gcs += uint64(after.NumGC - d.before.NumGC)
	d.pauseNs += after.PauseTotalNs - d.before.PauseTotalNs
	d.allocated += after.TotalAlloc - d.before.TotalAlloc
}

// put reports the per-call means over calls operations.
func (d *memDelta) put(m map[string]float64, calls int) {
	if calls == 0 {
		return
	}
	m["runtime.gc_cycles"] = float64(d.gcs) / float64(calls)
	m["runtime.gc_pause_ms"] = float64(d.pauseNs) / 1e6 / float64(calls)
	m["runtime.alloc_mb_per_call"] = float64(d.allocated) / (1 << 20) / float64(calls)
}

// input summarises a workload's dataset.
type input struct {
	nonNull, canonicalBytes int64
}

// measureInput counts the non-null values of every column and their
// canonical bytes — the size of what discovery extracts.
func measureInput(rel *relstore.Database) input {
	var in input
	for _, ref := range rel.Columns() {
		_, _ = rel.Table(ref.Table).ScanColumn(ref.Column, func(v value.Value) {
			if !v.IsNull() {
				in.nonNull++
				in.canonicalBytes += int64(len(v.Canonical()))
			}
		})
	}
	return in
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
