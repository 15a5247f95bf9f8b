package spider

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spider/internal/datagen"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
)

// This file is the equivalence property of the extraction pass, which
// derives every attribute's statistics from the same column scan that
// yields its sorted distinct set. For every extracting path it checks
//
//   - the attribute statistics against relstore.ColumnStats, field by
//     field;
//   - the sketches against the sketch built by a direct column scan
//     sized by the stats pass's distinct count;
//   - value files, sections, sketches, verdicts, Candidates and
//     CandidatesPruned against the digests in testdata/*_golden.txt.
//     Those were recorded with the statistics still computed by a
//     separate relstore pass before extraction, so a match means the
//     output is byte-identical to it.
//
// Regenerate the golden files only for a deliberate change of the
// on-disk bytes or of the verdicts: go test -run Extract -update .

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*_golden.txt digests")

// extractionDatabases are the property's subjects: the three paper
// datasets at test scale plus the Zipf-skewed shard-planning fixture.
func extractionDatabases() map[string]func() *Database {
	return map[string]func() *Database{
		"pdb":     func() *Database { return GeneratePDB(DatasetConfig{Seed: 11, Scale: 0.2, Tables: 8}) },
		"uniprot": func() *Database { return GenerateUniProt(DatasetConfig{Seed: 11, Scale: 0.05}) },
		"scop":    func() *Database { return GenerateSCOP(DatasetConfig{Seed: 11, Scale: 0.1}) },
		"skewed": func() *Database {
			return &Database{rel: datagen.Skewed(datagen.SkewedConfig{Seed: 11, Rows: 1500})}
		},
	}
}

// goldenDigests collects one line per case and compares (or, with
// -update, rewrites) its golden file once every case has run.
type goldenDigests struct {
	path string
	got  map[string]string
	want map[string]string
}

func loadGolden(t *testing.T, path string) *goldenDigests {
	t.Helper()
	g := &goldenDigests{path: path, got: map[string]string{}, want: map[string]string{}}
	if *updateGolden {
		return g
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if ok {
			g.want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return g
}

// check records the case's digest and, unless updating, compares it.
func (g *goldenDigests) check(t *testing.T, name, digest string) {
	t.Helper()
	g.got[name] = digest
	if *updateGolden {
		return
	}
	want, ok := g.want[name]
	if !ok {
		t.Errorf("%s: no golden digest (regenerate with -update)", name)
	} else if want != digest {
		t.Errorf("%s: digest %s, golden %s", name, digest, want)
	}
}

// finish writes the golden file when updating.
func (g *goldenDigests) finish(t *testing.T) {
	t.Helper()
	if !*updateGolden || t.Failed() {
		return
	}
	names := make([]string, 0, len(g.got))
	for name := range g.got {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&buf, "%s %s\n", name, g.got[name])
	}
	if err := os.WriteFile(g.path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func digestOf(b []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestExtractionMatchesStatsPass runs every extraction path — file
// export into the fs, mem and snapshot backends, streaming, streaming
// with frozen shared runs — on attributes listed from the catalog only,
// in both formats.
func TestExtractionMatchesStatsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	golden := loadGolden(t, "testdata/extraction_golden.txt")
	defer golden.finish(t)
	paths := []string{"export-fs", "export-mem", "export-snapshot", "stream"}
	for dbName, mk := range extractionDatabases() {
		// The reference: statistics from the relational store's own pass
		// and sketches from a direct column scan sized by them.
		ref := mk().rel
		refAttrs, err := ind.CollectAttributes(ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := ind.BuildAttributeSketches(ref, refAttrs, sketch.Config{}, 2); err != nil {
			t.Fatal(err)
		}
		for _, format := range []valfile.Format{valfile.FormatText, valfile.FormatBlock} {
			for _, path := range paths {
				// mem=0 (the default sort buffer) is part of the
				// recorded golden names.
				name := fmt.Sprintf("extract/%s/%s/%s/mem=0", dbName, format, path)
				db := mk().rel
				digest := extractAndDigest(t, name, db, path, format, refAttrs)
				golden.check(t, name, digest)
			}
		}
	}
}

// extractAndDigest runs one extraction path, checks it against the
// reference attributes and returns the digest of everything it produced.
func extractAndDigest(t *testing.T, name string, db *relstore.Database, path string, format valfile.Format, refAttrs []*ind.Attribute) string {
	t.Helper()
	attrs, err := ind.CatalogAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := ind.ExportConfig{
		Workers:  2,
		Sketches: true,
		Format:   format,
	}
	var h bytes.Buffer
	values := map[int][]string{}
	var readDS store.Dataset
	switch path {
	case "export-fs":
		cfg.Dir = dir
		readDS = store.NewFS(dir, format)
	case "export-mem":
		mem := store.NewMem()
		cfg.Dataset, readDS = mem, mem
	case "export-snapshot":
		mem := store.NewMem()
		cfg.Dataset, readDS = mem, store.NewSnapshot(mem)
	case "stream":
		src, err := ind.StreamAttributes(db, attrs, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer src.Close()
		for _, a := range attrs {
			values[a.ID] = drain(t, name, func() (ind.Cursor, error) { return src.Open(a) })
		}
	}
	if readDS != nil {
		if err := ind.ExportAttributes(db, attrs, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, a := range attrs {
			key := a.StoreKey()
			values[a.ID] = drain(t, name, func() (ind.Cursor, error) { return readDS.Open(key, nil) })
			if a.Path != "" {
				raw, err := os.ReadFile(a.Path)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&h, "file %s %s\n", filepath.Base(a.Path), digestOf(raw))
			}
			for _, tag := range []string{valfile.RunMetaSection, valfile.SketchSection} {
				data, ok, err := readDS.Section(key, tag)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&h, "section %s %s %v %s\n", filepath.Base(key), tag, ok, digestOf(data))
			}
		}
	}

	for i, a := range attrs {
		r := refAttrs[i]
		if a.Ref != r.Ref {
			t.Fatalf("%s: attribute %d is %s, reference %s", name, i, a.Ref, r.Ref)
		}
		if a.Rows != r.Rows || a.NonNull != r.NonNull || a.Distinct != r.Distinct || a.Unique != r.Unique ||
			a.MinCanonical != r.MinCanonical || a.MaxCanonical != r.MaxCanonical {
			t.Errorf("%s: %s stats rows=%d nonnull=%d distinct=%d unique=%v min=%q max=%q; relstore.ColumnStats rows=%d nonnull=%d distinct=%d unique=%v min=%q max=%q",
				name, a.Ref, a.Rows, a.NonNull, a.Distinct, a.Unique, a.MinCanonical, a.MaxCanonical,
				r.Rows, r.NonNull, r.Distinct, r.Unique, r.MinCanonical, r.MaxCanonical)
		}
		got, want := encodeSketch(t, a.Sketch), encodeSketch(t, r.Sketch)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %s sketch differs from the direct-scan sketch", name, a.Ref)
		}
		distinct, err := db.Table(a.Ref.Table).DistinctCanonical(a.Ref.Column)
		if err != nil {
			t.Fatal(err)
		}
		if v := values[a.ID]; len(v) != len(distinct) || (len(v) > 0 && !reflect.DeepEqual(v, distinct)) {
			t.Errorf("%s: %s delivered %d values, the column has %d distinct", name, a.Ref, len(v), len(distinct))
		}
		fmt.Fprintf(&h, "attr %d %s rows=%d nonnull=%d distinct=%d unique=%v min=%q max=%q sketch=%s values=%s\n",
			a.ID, a.Ref, a.Rows, a.NonNull, a.Distinct, a.Unique, a.MinCanonical, a.MaxCanonical,
			digestOf(got), digestOf([]byte(strings.Join(values[a.ID], "\x00"))))
	}
	return digestOf(h.Bytes())
}

// drain reads a whole cursor.
func drain(t *testing.T, name string, open func() (ind.Cursor, error)) []string {
	t.Helper()
	cur, err := open()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer cur.Close()
	var out []string
	for {
		v, ok := cur.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func encodeSketch(t *testing.T, s *sketch.Sketch) []byte {
	t.Helper()
	if s == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExtractingEntryPointsMatchGolden runs every public entry point
// that extracts value sets — exact discovery over exported files,
// streaming and sharded streaming, partial, the n-ary seed and embedded
// discovery — over every backend and format, and pins verdicts and
// candidate counts.
func TestExtractingEntryPointsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	golden := loadGolden(t, "testdata/entrypoints_golden.txt")
	defer golden.finish(t)
	backends := map[string]func(Format) *Store{
		"fs":       func(f Format) *Store { return NewFSStore("", f) },
		"mem":      func(Format) *Store { return NewMemStore() },
		"snapshot": func(Format) *Store { return NewSnapshotStore() },
	}
	for dbName, mk := range extractionDatabases() {
		oracle, err := FindINDs(mk(), Options{Algorithm: InMemory, SketchPrefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		naryOracle, _, err := FindNaryINDs(mk(), NaryOptions{Algorithm: InMemory, MaxArity: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []Format{FormatText, FormatBlock} {
			for backend, mkStore := range backends {
				prefix := fmt.Sprintf("entry/%s/%s/%s", dbName, format, backend)
				for _, mode := range []struct {
					name      string
					streaming bool
					shards    int
				}{{"export", false, 1}, {"stream", true, 1}, {"stream-shards", true, 4}} {
					name := prefix + "/exact-" + mode.name
					res, err := FindINDs(mk(), Options{
						Algorithm: SpiderMerge, SketchPrefilter: true, Format: format, Store: mkStore(format),
						Streaming: mode.streaming, Shards: mode.shards,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(res.INDs, oracle.INDs) {
						t.Errorf("%s: INDs differ from the in-memory engine's", name)
					}
					// The in-memory engine still collects statistics and
					// sketches with separate passes: the candidate counts
					// before and after the sketch pre-filter must agree.
					if res.Stats.Candidates != oracle.Stats.Candidates || res.Stats.CandidatesPruned != oracle.Stats.CandidatesPruned {
						t.Errorf("%s: candidates %d pruned %d, in-memory engine %d pruned %d", name,
							res.Stats.Candidates, res.Stats.CandidatesPruned, oracle.Stats.Candidates, oracle.Stats.CandidatesPruned)
					}
					golden.check(t, name, fmt.Sprintf("candidates=%d pruned=%d satisfied=%d inds=%s",
						res.Stats.Candidates, res.Stats.CandidatesPruned, len(res.INDs), digestOf([]byte(fmt.Sprint(res.INDs)))))
				}
				for _, streaming := range []bool{false, true} {
					name := fmt.Sprintf("%s/partial-streaming=%v", prefix, streaming)
					got, st, err := FindPartialINDs(mk(), PartialOptions{
						Threshold: 0.8, Algorithm: SpiderMerge, SketchPrefilter: true,
						Format: format, Store: mkStore(format), Streaming: streaming,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					golden.check(t, name, fmt.Sprintf("candidates=%d pruned=%d satisfied=%d inds=%s",
						st.Candidates, st.CandidatesPruned, len(got), digestOf([]byte(fmt.Sprint(got)))))
				}
				name := prefix + "/nary"
				nary, nst, err := FindNaryINDs(mk(), NaryOptions{
					Algorithm: SpiderMerge, MaxArity: 3, Format: format, Store: mkStore(format),
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(nary, naryOracle) {
					t.Errorf("%s: n-ary INDs differ from the in-memory engine's", name)
				}
				golden.check(t, name, fmt.Sprintf("candidates=%v satisfied=%v inds=%s",
					nst.CandidatesByArity, nst.SatisfiedByArity, digestOf([]byte(fmt.Sprint(nary)))))

				name = prefix + "/embedded"
				emb, est, err := FindEmbeddedINDsWith(mk(), EmbeddedOptions{
					Algorithm: SpiderMerge, Format: format, Store: mkStore(format),
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				golden.check(t, name, fmt.Sprintf("candidates=%d satisfied=%d inds=%s",
					est.Candidates, len(emb), digestOf([]byte(fmt.Sprint(emb)))))
			}
		}
	}
}
