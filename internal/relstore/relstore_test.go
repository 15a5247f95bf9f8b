package relstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"spider/internal/value"
)

func newTestDB(t *testing.T) (*Database, *Table) {
	t.Helper()
	db := NewDatabase("test")
	tab := db.MustCreateTable("proteins", []Column{
		{Name: "id", Kind: value.Int},
		{Name: "accession", Kind: value.String},
		{Name: "mass", Kind: value.Float},
	})
	tab.MustInsert(value.NewInt(1), value.NewString("P12345"), value.NewFloat(10.5))
	tab.MustInsert(value.NewInt(2), value.NewString("P67890"), value.NewNull())
	tab.MustInsert(value.NewInt(3), value.NewString("P12345"), value.NewFloat(11.25))
	return db, tab
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDatabase("v")
	if _, err := db.CreateTable("", []Column{{Name: "a", Kind: value.Int}}); err == nil {
		t.Error("empty table name must fail")
	}
	if _, err := db.CreateTable("t", nil); err == nil {
		t.Error("no columns must fail")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "", Kind: value.Int}}); err == nil {
		t.Error("empty column name must fail")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Kind: value.Int}, {Name: "a", Kind: value.Int}}); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Kind: value.Int}}); err != nil {
		t.Fatalf("valid create failed: %v", err)
	}
	if _, err := db.CreateTable("t", []Column{{Name: "b", Kind: value.Int}}); err == nil {
		t.Error("duplicate table must fail")
	}
}

func TestInsertArity(t *testing.T) {
	_, tab := newTestDB(t)
	if err := tab.Insert([]value.Value{value.NewInt(9)}); err == nil {
		t.Error("short row must fail")
	}
	if tab.RowCount() != 3 {
		t.Errorf("RowCount = %d, want 3", tab.RowCount())
	}
}

func TestInsertCopiesRow(t *testing.T) {
	db := NewDatabase("c")
	tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.Int}})
	row := []value.Value{value.NewInt(1)}
	if err := tab.Insert(row); err != nil {
		t.Fatal(err)
	}
	row[0] = value.NewInt(99)
	if got := tab.Row(0)[0].Int(); got != 1 {
		t.Errorf("stored row aliases caller slice: got %d", got)
	}
}

func TestColumnStats(t *testing.T) {
	db, _ := newTestDB(t)
	s, err := db.ColumnStats(ColumnRef{"proteins", "accession"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 3 || s.NonNull != 3 || s.Distinct != 2 {
		t.Errorf("accession stats = %+v", s)
	}
	if s.Unique {
		t.Error("accession has a duplicate, must not be unique")
	}
	if s.MinCanonical != "P12345" || s.MaxCanonical != "P67890" {
		t.Errorf("min/max = %q/%q", s.MinCanonical, s.MaxCanonical)
	}

	s, err = db.ColumnStats(ColumnRef{"proteins", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Unique || s.Distinct != 3 {
		t.Errorf("id stats = %+v", s)
	}

	s, err = db.ColumnStats(ColumnRef{"proteins", "mass"})
	if err != nil {
		t.Fatal(err)
	}
	if s.NonNull != 2 || s.Distinct != 2 || !s.Unique {
		t.Errorf("mass stats = %+v (NULL must not break uniqueness)", s)
	}
}

func TestStatsRefreshAfterInsert(t *testing.T) {
	db, tab := newTestDB(t)
	ref := ColumnRef{"proteins", "id"}
	s, _ := db.ColumnStats(ref)
	if !s.Unique {
		t.Fatal("precondition: id unique")
	}
	tab.MustInsert(value.NewInt(1), value.NewString("Q0"), value.NewNull())
	s, _ = db.ColumnStats(ref)
	if s.Unique {
		t.Error("stats must refresh: id now has duplicate 1")
	}
}

func TestEmptyColumnStats(t *testing.T) {
	db := NewDatabase("e")
	tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.String}})
	tab.MustInsert(value.NewNull())
	s, err := db.ColumnStats(ColumnRef{"t", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if s.HasNonNull || s.Unique || s.Distinct != 0 {
		t.Errorf("all-NULL column stats = %+v", s)
	}
}

// TestStatsAccumulatorMatchesColumnStats feeds each column's values to
// a StatsAccumulator in reverse row order: the statistics are a function
// of the value bag, not of the order it is scanned in.
func TestStatsAccumulatorMatchesColumnStats(t *testing.T) {
	db, tab := newTestDB(t)
	tab.MustInsert(value.NewInt(2), value.NewString("P1"), value.NewNull())
	for _, c := range tab.Columns {
		var acc StatsAccumulator
		for i := tab.RowCount() - 1; i >= 0; i-- {
			if v := tab.Row(i)[tab.ColumnIndex(c.Name)]; v.IsNull() {
				acc.AddNull()
			} else {
				acc.Add(v.Canonical())
			}
		}
		want, err := db.ColumnStats(ColumnRef{"proteins", c.Name})
		if err != nil {
			t.Fatal(err)
		}
		if got := acc.Stats(); got != want {
			t.Errorf("%s: accumulator %+v, ColumnStats %+v", c.Name, got, want)
		}
		distinct, err := tab.DistinctCanonical(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got := acc.SortedDistinct(); !slices.Equal(got, distinct) {
			t.Errorf("%s: SortedDistinct = %q, DistinctCanonical = %q", c.Name, got, distinct)
		}
	}
	var allNull StatsAccumulator
	for i := 0; i < 3; i++ {
		allNull.AddNull()
	}
	if got := allNull.SortedDistinct(); len(got) != 0 {
		t.Errorf("all-NULL column: SortedDistinct = %q, want none", got)
	}
	var empty StatsAccumulator
	if got := empty.Stats(); got != (ColumnStats{}) {
		t.Errorf("zero accumulator stats = %+v", got)
	}
}

func TestHasNonNull(t *testing.T) {
	db := NewDatabase("n")
	tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.String}, {Name: "b", Kind: value.Int}})
	tab.MustInsert(value.NewNull(), value.NewNull())
	tab.MustInsert(value.NewNull(), value.NewInt(7))
	for col, want := range map[string]bool{"a": false, "b": true} {
		got, err := tab.HasNonNull(col)
		if err != nil || got != want {
			t.Errorf("HasNonNull(%s) = %v, %v; want %v", col, got, err, want)
		}
	}
	if _, err := tab.HasNonNull("nope"); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestResolveErrors(t *testing.T) {
	db, _ := newTestDB(t)
	if _, _, err := db.Resolve(ColumnRef{"nope", "x"}); err == nil {
		t.Error("unknown table must fail")
	}
	if _, _, err := db.Resolve(ColumnRef{"proteins", "nope"}); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := db.ColumnStats(ColumnRef{"nope", "x"}); err == nil {
		t.Error("stats on unknown table must fail")
	}
	if _, err := db.ColumnKind(ColumnRef{"nope", "x"}); err == nil {
		t.Error("kind on unknown table must fail")
	}
}

func TestForeignKeys(t *testing.T) {
	db, _ := newTestDB(t)
	db.MustCreateTable("refs", []Column{{Name: "protein_id", Kind: value.Int}})
	dep := ColumnRef{"refs", "protein_id"}
	ref := ColumnRef{"proteins", "id"}
	if err := db.DeclareForeignKey(dep, ref); err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareForeignKey(dep, ColumnRef{"proteins", "nope"}); err == nil {
		t.Error("FK to unknown column must fail")
	}
	if err := db.DeclareForeignKey(ColumnRef{"nope", "x"}, ref); err == nil {
		t.Error("FK from unknown table must fail")
	}
	fks := db.ForeignKeys()
	if len(fks) != 1 || fks[0].Dep != dep || fks[0].Ref != ref {
		t.Errorf("ForeignKeys = %+v", fks)
	}
	fks[0].Dep.Table = "mutated"
	if db.ForeignKeys()[0].Dep.Table != "refs" {
		t.Error("ForeignKeys must return a copy")
	}
}

func TestColumnsEnumeration(t *testing.T) {
	db, _ := newTestDB(t)
	db.MustCreateTable("z", []Column{{Name: "c", Kind: value.Int}})
	got := db.Columns()
	want := []ColumnRef{
		{"proteins", "id"}, {"proteins", "accession"}, {"proteins", "mass"}, {"z", "c"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Columns() = %v, want %v", got, want)
	}
}

func TestDistinctCanonical(t *testing.T) {
	_, tab := newTestDB(t)
	got, err := tab.DistinctCanonical("accession")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"P12345", "P67890"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DistinctCanonical = %v, want %v", got, want)
	}
	if _, err := tab.DistinctCanonical("nope"); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestScanColumn(t *testing.T) {
	_, tab := newTestDB(t)
	var nulls, vals int
	n, err := tab.ScanColumn("mass", func(v value.Value) {
		if v.IsNull() {
			nulls++
		} else {
			vals++
		}
	})
	if err != nil || n != 3 || nulls != 1 || vals != 2 {
		t.Errorf("ScanColumn n=%d nulls=%d vals=%d err=%v", n, nulls, vals, err)
	}
	if _, err := tab.ScanColumn("nope", func(value.Value) {}); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	_, tab := newTestDB(t)
	var buf bytes.Buffer
	if err := tab.DumpCSV(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("rt")
	tab2, err := db2.loadCSV(&buf, "proteins")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 3 {
		t.Fatalf("round trip rows = %d", tab2.RowCount())
	}
	// Kinds inferred from data: id → Int, accession → String, mass → Float.
	wantKinds := []value.Kind{value.Int, value.String, value.Float}
	for i, c := range tab2.Columns {
		if c.Kind != wantKinds[i] {
			t.Errorf("column %s kind = %v, want %v", c.Name, c.Kind, wantKinds[i])
		}
	}
	// NULL round-trips as empty string → NULL.
	if !tab2.Row(1)[2].IsNull() {
		t.Error("NULL mass must survive round trip")
	}
}

func TestLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.csv", "x,y\n1,a\n2,b\n")
	write("a.csv", "k\n10\n20\n30\n")
	write("ignored.txt", "not csv")

	db := NewDatabase("dir")
	tables, err := db.LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tb := range tables {
		names = append(names, tb.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Errorf("loaded tables = %v", names)
	}
	if db.Table("a").RowCount() != 3 || db.Table("b").RowCount() != 2 {
		t.Error("row counts wrong")
	}
	if db.Table("ignored") != nil {
		t.Error("non-csv file must be ignored")
	}
}

func TestLoadCSVDirErrors(t *testing.T) {
	db := NewDatabase("dir")
	if _, err := db.LoadCSVDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir must fail")
	}
	empty := t.TempDir()
	if _, err := db.LoadCSVDir(empty); err == nil {
		t.Error("dir without csv files must fail")
	}
}

func TestLoadCSVMalformed(t *testing.T) {
	db := NewDatabase("bad")
	if _, err := db.loadCSV(strings.NewReader(""), "t"); err == nil {
		t.Error("empty csv must fail")
	}
	db2 := NewDatabase("bad2")
	if _, err := db2.loadCSV(strings.NewReader("a,b\n1\n"), "t"); err == nil {
		t.Error("ragged record must fail")
	}
}

func TestLoadCSVTypeWidening(t *testing.T) {
	db := NewDatabase("w")
	tab, err := db.loadCSV(strings.NewReader("n,m\n1,1\n2.5,x\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Columns[0].Kind != value.Float {
		t.Errorf("n kind = %v, want FLOAT (1 widened by 2.5)", tab.Columns[0].Kind)
	}
	if tab.Columns[1].Kind != value.String {
		t.Errorf("m kind = %v, want VARCHAR", tab.Columns[1].Kind)
	}
}

// Property: DistinctCanonical returns a sorted duplicate-free slice whose
// element set equals the set of canonical encodings of the inserted
// non-empty values.
func TestDistinctCanonicalProperty(t *testing.T) {
	f := func(vals []string) bool {
		db := NewDatabase("p")
		tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.String}})
		want := make(map[string]struct{})
		for _, s := range vals {
			tab.MustInsert(value.Parse(s, value.String))
			if s != "" {
				want[s] = struct{}{}
			}
		}
		got, err := tab.DistinctCanonical("a")
		if err != nil {
			return false
		}
		if !sort.StringsAreSorted(got) || len(got) != len(want) {
			return false
		}
		for _, s := range got {
			if _, ok := want[s]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: stats' Distinct always equals len(DistinctCanonical), and
// NonNull ≥ Distinct.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(vals []int16) bool {
		db := NewDatabase("p")
		tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.Int}})
		for _, x := range vals {
			tab.MustInsert(value.NewInt(int64(x)))
		}
		s, err := db.ColumnStats(ColumnRef{"t", "a"})
		if err != nil {
			return false
		}
		dc, _ := tab.DistinctCanonical("a")
		return s.Distinct == len(dc) && s.NonNull >= s.Distinct
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
