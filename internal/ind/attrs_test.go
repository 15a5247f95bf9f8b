package ind

import (
	"os"
	"slices"
	"testing"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// dirWatchingDataset is a store.Dataset that counts Create calls and
// lists a directory at each one. Extraction finishes scanning and sorting
// an attribute before it creates the attribute's value set, so any
// scratch file the extraction wrote is still in the directory then.
type dirWatchingDataset struct {
	store.Dataset
	dir     string
	creates int
	seen    []string
}

func (d *dirWatchingDataset) Create(key string) (store.ValueWriter, error) {
	d.creates++
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		d.seen = append(d.seen, e.Name())
	}
	return d.Dataset.Create(key)
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestLongAttributeExtractionWritesOnlyItsValueSet extracts a column
// longer than extsort.DefaultMaxInMemory. Its distinct set is sorted in
// memory, so the export creates the value file (plus the text sketch
// sidecar) and nothing else, its run metadata records no spill run, and
// streaming writes no file at all.
func TestLongAttributeExtractionWritesOnlyItsValueSet(t *testing.T) {
	const rows = 200_000
	if rows <= extsort.DefaultMaxInMemory {
		t.Fatalf("%d rows do not exceed the sorter's memory budget %d", rows, extsort.DefaultMaxInMemory)
	}
	db := relstore.NewDatabase("long")
	tab := db.MustCreateTable("t", []relstore.Column{{Name: "v", Kind: value.Int}})
	want := make([]string, rows)
	for i := range want {
		v := value.NewInt(int64(rows - 1 - i))
		tab.MustInsert(v)
		want[i] = v.Canonical()
	}
	slices.Sort(want)
	for _, format := range []valfile.Format{valfile.FormatText, valfile.FormatBlock} {
		t.Run(format.String(), func(t *testing.T) {
			dir := t.TempDir()
			ds := &dirWatchingDataset{Dataset: store.NewFS(dir, format), dir: dir}
			attrs, err := CatalogAttributes(db)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ExportConfig{Dataset: ds, Dir: dir, Sketches: true, Format: format}
			if err := ExportAttributes(db, attrs, cfg); err != nil {
				t.Fatal(err)
			}
			if ds.creates != 1 || len(ds.seen) > 0 {
				t.Errorf("%d creates; the directory held %v while extracting", ds.creates, ds.seen)
			}
			key := attrFileName(attrs[0])
			wantFiles := []string{key}
			if format == valfile.FormatText {
				wantFiles = append(wantFiles, key+sketch.FileSuffix)
			}
			if got := dirNames(t, dir); !slices.Equal(got, wantFiles) {
				t.Errorf("directory holds %v, want %v", got, wantFiles)
			}
			data, ok, err := ds.Section(key, valfile.RunMetaSection)
			if err != nil {
				t.Fatal(err)
			}
			if format == valfile.FormatBlock {
				meta, err := extsort.DecodeRunMeta(data)
				if err != nil || !ok {
					t.Fatalf("run metadata: ok=%v err=%v", ok, err)
				}
				if meta != (extsort.RunMeta{Added: rows}) {
					t.Errorf("run metadata %+v, want {Added:%d SpillRuns:0}", meta, rows)
				}
			}

			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			streamed, err := CatalogAttributes(db)
			if err != nil {
				t.Fatal(err)
			}
			src, err := StreamAttributes(db, streamed, ExportConfig{Format: format}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if got := dirNames(t, tmp); len(got) > 0 {
				t.Errorf("streaming wrote %v into the temp dir", got)
			}
			cur, err := src.Open(streamed[0])
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			var got []string
			for v, ok := cur.Next(); ok; v, ok = cur.Next() {
				got = append(got, v)
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("streamed %d values, want the %d sorted distinct ones", len(got), len(want))
			}
		})
	}
}
