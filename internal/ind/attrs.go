// Package ind implements the paper's unary inclusion dependency discovery:
// candidate generation with pretests (Sec 1.2, 2), the three SQL approaches
// (Sec 2.1), the brute-force algorithm (Sec 3.1, Algorithm 1), the
// single-pass algorithm (Sec 3.2, Algorithms 2 and 3), the candidate
// pruning heuristics (Sec 4.1) and the block-wise single-pass extension
// proposed in Sec 4.2.
package ind

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// Attribute is one column prepared for IND testing: its identity, the
// statistics the pretests need, and (after export) the sorted distinct
// value file the order-based algorithms traverse.
type Attribute struct {
	// ID is a dense index, assigned in catalog order.
	ID int
	// Ref names the column.
	Ref relstore.ColumnRef
	// Kind is the declared column type.
	Kind value.Kind
	// Rows, NonNull, Distinct and Unique summarise the column's data.
	Rows     int
	NonNull  int
	Distinct int
	Unique   bool
	// MinCanonical/MaxCanonical bound the value set in canonical order;
	// MaxCanonical drives the Sec 4.1 pretest.
	MinCanonical string
	MaxCanonical string
	// Path is the sorted distinct value file, "" until exported to a
	// filesystem dataset (in-memory backends leave it empty).
	Path string
	// Key is the attribute's staging key inside the dataset it was
	// exported to, "" until exported.
	Key string
	// Sketch is the attribute's pre-filter summary (KMV signature +
	// partitioned bloom filter); nil until built by an export with
	// ExportConfig.Sketches, by LoadSketches, or by
	// BuildAttributeSketches.
	Sketch *sketch.Sketch
}

// String implements fmt.Stringer.
func (a *Attribute) String() string { return a.Ref.String() }

// StoreKey returns the dataset key under which the attribute's sorted
// distinct value set is readable: the value-file path when one exists
// (resolved verbatim by filesystem datasets, whatever their root) or
// the staging key of a non-file backend. "" means not exported yet.
func (a *Attribute) StoreKey() string {
	if a.Path != "" {
		return a.Path
	}
	return a.Key
}

// NonEmpty reports whether the attribute has at least one non-null value.
func (a *Attribute) NonEmpty() bool { return a.NonNull > 0 }

// DependentCandidate reports whether the attribute may appear on the
// dependent side: "non-empty columns of any type except LOB" (Sec 2).
func (a *Attribute) DependentCandidate() bool {
	return a.NonEmpty() && a.Kind != value.LOB
}

// ReferencedCandidate reports whether the attribute may appear on the
// referenced side: "non-empty unique columns" (Sec 2). LOBs are excluded
// here too, since every referenced attribute is also a dependent one.
func (a *Attribute) ReferencedCandidate() bool {
	return a.NonEmpty() && a.Unique && a.Kind != value.LOB
}

// CatalogAttributes lists one Attribute per column of db, in catalog
// order, with identity and kind only. Its statistics stay zero until an
// extraction (ExportAttributes, StreamAttributes, StreamAttributesShared)
// derives them from the same scan that sorts the values.
func CatalogAttributes(db *relstore.Database) ([]*Attribute, error) {
	var out []*Attribute
	for _, ref := range db.Columns() {
		kind, err := db.ColumnKind(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, &Attribute{ID: len(out), Ref: ref, Kind: kind})
	}
	return out, nil
}

// CollectAttributes gathers one Attribute per column of db, in catalog
// order, computing statistics from the stored data. It is for the
// engines that never extract value sets; extracting paths list the
// catalog (CatalogAttributes) and get the statistics from extraction.
func CollectAttributes(db *relstore.Database) ([]*Attribute, error) {
	out, err := CatalogAttributes(db)
	if err != nil {
		return nil, err
	}
	for _, a := range out {
		st, err := db.ColumnStats(a.Ref)
		if err != nil {
			return nil, err
		}
		a.setStats(st)
	}
	return out, nil
}

// setStats copies the column statistics the pretests read.
func (a *Attribute) setStats(st relstore.ColumnStats) {
	a.Rows, a.NonNull, a.Distinct, a.Unique = st.Rows, st.NonNull, st.Distinct, st.Unique
	a.MinCanonical, a.MaxCanonical = st.MinCanonical, st.MaxCanonical
}

// ExportConfig controls sorted value set export.
type ExportConfig struct {
	// Dataset receives the staged value sets. nil selects a filesystem
	// dataset rooted at Dir in the configured Format — the historical
	// files-on-disk layout.
	Dataset store.Dataset
	// Dir receives one value file per attribute when Dataset is nil; it
	// also hosts the sorter's spill runs unless Sort.TempDir overrides.
	Dir string
	// Sort configures the external sorter.
	Sort extsort.Config
	// Workers bounds the export worker pool. Attributes are independent —
	// each worker scans its own column and writes its own file — so
	// extraction scales with cores. Zero or one exports sequentially.
	Workers int
	// Sketches additionally builds each attribute's pre-filter sketch
	// (KMV min-hash signature + partitioned bloom filter) without another
	// column scan: the extraction scan's distinct set feeds it, each
	// distinct value once. File exports persist the sketch next to the
	// value file under the sketch.FileSuffix name.
	Sketches bool
	// SketchConfig sizes the sketches; the zero value selects the
	// sketch package defaults.
	SketchConfig sketch.Config
	// Format selects the value-file encoding (and the spill-run encoding,
	// via Sort.Format). The zero value is the text format. Block-format
	// exports embed the sketch inside the value file instead of writing a
	// sidecar, so one attribute is one file open.
	Format valfile.Format
}

// ExportAttributes writes each attribute's sorted distinct value file into
// cfg.Dir, fills Attribute.Path and, from the same column scan, the
// attribute's statistics. This is the paper's extraction step:
// "All value sets are extracted from the database and stored in sorted
// files" (Sec 3.2), with the sort performed once per attribute rather than
// once per IND test — the first optimization of Sec 1.2. With
// cfg.Workers > 1 the attributes are exported by a bounded worker pool.
func ExportAttributes(db *relstore.Database, attrs []*Attribute, cfg ExportConfig) error {
	ds := cfg.Dataset
	if ds == nil {
		if cfg.Dir == "" {
			return fmt.Errorf("ind: ExportConfig.Dir is required")
		}
		ds = store.NewFS(cfg.Dir, cfg.Format)
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return fmt.Errorf("ind: %w", err)
		}
		if cfg.Sort.TempDir == "" {
			cfg.Sort.TempDir = cfg.Dir
		}
	}
	cfg.Sort.Format = cfg.Format
	return forEachAttribute(attrs, cfg.Workers, func(a *Attribute) error {
		return exportAttribute(db, a, cfg, ds)
	})
}

// forEachAttribute applies fn to every attribute on a pool of at most
// workers goroutines (sequentially when workers <= 1), returning the
// first error. fn runs at most once per attribute; later work is skipped
// after a failure.
func forEachAttribute(attrs []*Attribute, workers int, fn func(*Attribute) error) error {
	if workers > len(attrs) {
		workers = len(attrs)
	}
	if workers <= 1 {
		for _, a := range attrs {
			if err := fn(a); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(attrs) || failed.Load() {
					return
				}
				if err := fn(attrs[i]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// exportAttribute extracts, sorts and stages one attribute's value set
// into ds, persisting the sketch the extraction built when configured.
func exportAttribute(db *relstore.Database, a *Attribute, cfg ExportConfig, ds store.Dataset) error {
	sorter, err := extract(db, a, cfg)
	if err != nil {
		return err
	}
	defer sorter.Discard() // no-op after DrainTo; reclaims runs on early error
	key := attrFileName(a)
	w, err := ds.Create(key)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		w.Close()
		removeIfPresent(ds, key)
		return err
	}
	n, _, meta, err := sorter.DrainTo(w, nil)
	if err != nil {
		return abort(err)
	}
	// The run metadata always rides along; backends that cannot carry it
	// (the text encoding) drop it, exactly as before the storage seam.
	if err := w.SetSection(valfile.RunMetaSection, meta.Encode()); err != nil {
		return abort(err)
	}
	// The finished sketch is staged as a section of the value set itself:
	// block files embed it, text files persist the byte-identical sidecar,
	// memory datasets keep the payload in their section map.
	if cfg.Sketches {
		var buf bytes.Buffer
		if err := a.Sketch.Encode(&buf); err != nil {
			return abort(err)
		}
		if err := w.SetSection(valfile.SketchSection, buf.Bytes()); err != nil {
			return abort(err)
		}
	}
	if err := w.Close(); err != nil {
		removeIfPresent(ds, key)
		return err
	}
	// The sorter's deduplication and the statistics' hash set count the
	// distinct values independently; a mismatch means one of them is wrong.
	if n != a.Distinct {
		return fmt.Errorf("ind: %s: exported %d distinct values, stats say %d", a.Ref, n, a.Distinct)
	}
	a.Key = key
	if fs, ok := ds.(*store.FS); ok {
		a.Path = fs.Path(key)
	}
	return nil
}

// removeIfPresent is the best-effort cleanup of a failed staging; the
// key may or may not have become visible, so absence is not an error.
func removeIfPresent(ds store.Dataset, key string) {
	_ = ds.Remove(key)
}

// LoadSketches fills Attribute.Sketch from the sketches persisted in
// ds: the SketchSection staged next to each value set (embedded in
// block-format value files, sidecars next to text files, the section
// map of memory datasets). A nil ds resolves Attribute.Path verbatim —
// the files-on-disk default. Attributes without an exported value set
// or without a persisted sketch are skipped; a present but unreadable
// sketch is an error.
func LoadSketches(ds store.Dataset, attrs []*Attribute) error {
	if ds == nil {
		ds = pathFS
	}
	for _, a := range attrs {
		if a.Sketch != nil {
			continue
		}
		key := a.StoreKey()
		if key == "" {
			continue
		}
		data, ok, err := ds.Section(key, valfile.SketchSection)
		if err != nil {
			return fmt.Errorf("ind: %s: %w", a.Ref, err)
		}
		if !ok {
			continue
		}
		s, err := sketch.Decode(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("ind: %s: persisted sketch: %w", a.Ref, err)
		}
		a.Sketch = s
	}
	return nil
}

// extract scans the attribute's column once: each non-null value is
// canonicalised once, and that string feeds both a fresh external sorter
// and the column's statistics accumulator (NULLs feed the accumulator
// only). It sets the attribute's statistics and, when cfg asks for
// sketches, builds the sketch from the scan's distinct set, sized by the
// exact distinct count. On error every spill run the sorter already
// wrote is removed.
func extract(db *relstore.Database, a *Attribute, cfg ExportConfig) (*extsort.Sorter, error) {
	t := db.Table(a.Ref.Table)
	if t == nil {
		return nil, fmt.Errorf("ind: unknown table %q", a.Ref.Table)
	}
	sorter := extsort.New(cfg.Sort)
	var acc relstore.StatsAccumulator
	var addErr error
	_, err := t.ScanColumn(a.Ref.Column, func(v value.Value) {
		if addErr != nil {
			return
		}
		if v.IsNull() {
			acc.AddNull()
			return
		}
		c := v.Canonical()
		acc.Add(c)
		addErr = sorter.Add(c)
	})
	if err == nil {
		err = addErr
	}
	if err != nil {
		sorter.Discard()
		return nil, err
	}
	a.setStats(acc.Stats())
	if cfg.Sketches {
		b := sketch.NewBuilder(cfg.SketchConfig, a.Distinct)
		acc.EachDistinct(b.Add)
		a.Sketch = b.Finish()
	}
	return sorter, nil
}

// StreamAttributes loads every attribute's values into an external sorter
// and returns a SorterSource streaming the sorted distinct sets directly
// from the spill runs — the fully streaming pipeline for single-read
// engines (SpiderMerge), which never materializes final value files.
// Attribute.Path stays empty; cfg.Dir is unused. Extraction runs on the
// same bounded worker pool as ExportAttributes (cfg.Workers). counter may
// be nil.
func StreamAttributes(db *relstore.Database, attrs []*Attribute, cfg ExportConfig, counter *valfile.ReadCounter) (*SorterSource, error) {
	cfg.Sort.Format = cfg.Format
	src := NewSorterSource(counter)
	var mu sync.Mutex
	err := forEachAttribute(attrs, cfg.Workers, func(a *Attribute) error {
		sorter, err := extract(db, a, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		src.Add(a, sorter)
		mu.Unlock()
		return nil
	})
	if err != nil {
		src.Close()
		return nil, err
	}
	return src, nil
}

// StreamAttributesShared is the sharded-engine variant of
// StreamAttributes: every attribute's sorter is frozen into shareable
// runs (extsort.Runs) that can be opened any number of times and
// range-restricted, so S shards can each replay the spill runs over
// their own slice of the value space. Freezing (final sort and
// deduplication of the in-memory tail, intermediate merge passes) runs
// on the extraction worker pool. Attribute.Path stays empty; cfg.Dir is
// unused. counter may be nil.
func StreamAttributesShared(db *relstore.Database, attrs []*Attribute, cfg ExportConfig, counter *valfile.ReadCounter) (*RunsSource, error) {
	cfg.Sort.Format = cfg.Format
	src := NewRunsSource(counter)
	var mu sync.Mutex
	err := forEachAttribute(attrs, cfg.Workers, func(a *Attribute) error {
		sorter, err := extract(db, a, cfg)
		if err != nil {
			return err
		}
		defer sorter.Discard() // no-op once Freeze moved ownership to runs
		runs, err := sorter.Freeze()
		if err != nil {
			return err
		}
		mu.Lock()
		src.Add(a, runs)
		mu.Unlock()
		return nil
	})
	if err != nil {
		src.Close()
		return nil, err
	}
	return src, nil
}

// attrFileName builds a stable, filesystem-safe file name for an attribute.
func attrFileName(a *Attribute) string {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
				b.WriteRune(r)
			default:
				b.WriteByte('_')
			}
		}
		return b.String()
	}
	return fmt.Sprintf("%05d_%s_%s.val", a.ID, sanitize(a.Ref.Table), sanitize(a.Ref.Column))
}

// Prepare is the common preamble of the order-based algorithms: list the
// attributes and export their sorted value files, which fills their
// statistics in the same pass.
func Prepare(db *relstore.Database, cfg ExportConfig) ([]*Attribute, error) {
	attrs, err := CatalogAttributes(db)
	if err != nil {
		return nil, err
	}
	if err := ExportAttributes(db, attrs, cfg); err != nil {
		return nil, err
	}
	return attrs, nil
}
