// Package relstore implements the embedded relational store that stands in
// for the commercial object-relational DBMS of the paper (Sec 1.4). It
// provides a catalog of tables with typed columns, row storage, NULL
// handling, per-column statistics (non-null count, distinct count,
// uniqueness, canonical min/max) and declared constraints (primary keys,
// foreign keys) used as the gold standard in Sec 5.
package relstore

import (
	"fmt"
	"sort"

	"spider/internal/value"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Kind value.Kind
}

// ColumnRef names a column inside a database, the unit the IND algorithms
// operate on ("attribute" in the paper).
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference as table.column, the notation of the paper
// (e.g. sg_bioentry.accession).
func (r ColumnRef) String() string { return r.Table + "." + r.Column }

// ForeignKey is a declared referential constraint: Dep's values must be
// contained in Ref's values. Declared FKs are the gold standard for the
// Sec 5 evaluation; the OpenMMS-like dataset declares none.
type ForeignKey struct {
	Dep ColumnRef
	Ref ColumnRef
}

// Table is a named relation: an ordered set of typed columns plus rows.
type Table struct {
	Name    string
	Columns []Column
	// PrimaryKey is the name of the declared primary key column, or ""
	// when the schema declares none.
	PrimaryKey string

	rows     [][]value.Value
	colIndex map[string]int

	statsDirty bool
	stats      []ColumnStats
}

// ColumnStats summarises one column for candidate generation (Sec 2: the
// pretest on distinct cardinalities; Sec 4.1: the max-value pretest).
type ColumnStats struct {
	Rows         int
	NonNull      int
	Distinct     int
	Unique       bool // every non-null value occurs exactly once
	MinCanonical string
	MaxCanonical string
	HasNonNull   bool
}

// StatsAccumulator folds one column's values, in any order, into its
// ColumnStats. It is the one definition of the statistics: the table's
// own stats pass uses it, and so do extraction passes that canonicalise
// every value anyway and can derive the statistics from the same scan.
// The zero value is ready to use.
type StatsAccumulator struct {
	s        ColumnStats
	distinct map[string]struct{}
}

// AddNull records one NULL.
func (a *StatsAccumulator) AddNull() { a.s.Rows++ }

// Add records one non-null value by its canonical encoding.
func (a *StatsAccumulator) Add(canonical string) {
	a.s.Rows++
	a.s.NonNull++
	if a.distinct == nil {
		a.distinct = make(map[string]struct{})
	}
	a.distinct[canonical] = struct{}{}
	if !a.s.HasNonNull {
		a.s.MinCanonical, a.s.MaxCanonical, a.s.HasNonNull = canonical, canonical, true
		return
	}
	if canonical < a.s.MinCanonical {
		a.s.MinCanonical = canonical
	}
	if canonical > a.s.MaxCanonical {
		a.s.MaxCanonical = canonical
	}
}

// Stats returns the statistics of the values recorded so far.
func (a *StatsAccumulator) Stats() ColumnStats {
	s := a.s
	s.Distinct = len(a.distinct)
	s.Unique = s.HasNonNull && s.Distinct == s.NonNull
	return s
}

// EachDistinct calls fn once per distinct canonical value recorded so
// far, in no particular order.
func (a *StatsAccumulator) EachDistinct(fn func(canonical string)) {
	for c := range a.distinct {
		fn(c)
	}
}

// Database is a catalog of tables plus declared foreign keys.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
	fks    []ForeignKey
}

// NewDatabase returns an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// CreateTable adds a table with the given columns. It fails on duplicate
// table or column names and on empty schemas.
func (db *Database) CreateTable(name string, cols []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("relstore: empty table name")
	}
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("relstore: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("relstore: table %q has no columns", name)
	}
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relstore: table %q: empty column name at position %d", name, i)
		}
		if _, dup := idx[c.Name]; dup {
			return nil, fmt.Errorf("relstore: table %q: duplicate column %q", name, c.Name)
		}
		idx[c.Name] = i
	}
	t := &Table{Name: name, Columns: append([]Column(nil), cols...), colIndex: idx, statsDirty: true}
	db.tables[name] = t
	db.order = append(db.order, name)
	return t, nil
}

// MustCreateTable is CreateTable for statically known schemas (generators,
// tests); it panics on error.
func (db *Database) MustCreateTable(name string, cols []Column) *Table {
	t, err := db.CreateTable(name, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or nil if absent.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// Tables returns all tables in creation order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n])
	}
	return out
}

// DeclareForeignKey records a foreign key constraint. The store does not
// enforce it; declared constraints serve as the evaluation gold standard.
func (db *Database) DeclareForeignKey(dep, ref ColumnRef) error {
	for _, r := range []ColumnRef{dep, ref} {
		t := db.tables[r.Table]
		if t == nil {
			return fmt.Errorf("relstore: foreign key references unknown table %q", r.Table)
		}
		if _, ok := t.colIndex[r.Column]; !ok {
			return fmt.Errorf("relstore: foreign key references unknown column %s", r)
		}
	}
	db.fks = append(db.fks, ForeignKey{Dep: dep, Ref: ref})
	return nil
}

// ForeignKeys returns the declared foreign keys in declaration order.
func (db *Database) ForeignKeys() []ForeignKey {
	return append([]ForeignKey(nil), db.fks...)
}

// Columns enumerates every column of every table in catalog order.
func (db *Database) Columns() []ColumnRef {
	var out []ColumnRef
	for _, t := range db.Tables() {
		for _, c := range t.Columns {
			out = append(out, ColumnRef{Table: t.Name, Column: c.Name})
		}
	}
	return out
}

// Resolve returns the table and column index for a reference.
func (db *Database) Resolve(ref ColumnRef) (*Table, int, error) {
	t := db.tables[ref.Table]
	if t == nil {
		return nil, 0, fmt.Errorf("relstore: unknown table %q", ref.Table)
	}
	i, ok := t.colIndex[ref.Column]
	if !ok {
		return nil, 0, fmt.Errorf("relstore: unknown column %s", ref)
	}
	return t, i, nil
}

// ColumnStats computes (and caches per table) statistics for ref.
func (db *Database) ColumnStats(ref ColumnRef) (ColumnStats, error) {
	t, i, err := db.Resolve(ref)
	if err != nil {
		return ColumnStats{}, err
	}
	t.computeStats()
	return t.stats[i], nil
}

// ColumnKind returns the declared kind of ref.
func (db *Database) ColumnKind(ref ColumnRef) (value.Kind, error) {
	t, i, err := db.Resolve(ref)
	if err != nil {
		return value.Null, err
	}
	return t.Columns[i].Kind, nil
}

// TotalRows returns the number of rows across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.Tables() {
		n += len(t.rows)
	}
	return n
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	i, ok := t.colIndex[name]
	if !ok {
		return -1
	}
	return i
}

// Insert appends a row. The row must have exactly one value per column;
// values are accepted as-is (the loader performs kind coercion).
func (t *Table) Insert(row []value.Value) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("relstore: table %q: row has %d values, want %d", t.Name, len(row), len(t.Columns))
	}
	t.rows = append(t.rows, append([]value.Value(nil), row...))
	t.statsDirty = true
	return nil
}

// MustInsert is Insert that panics on arity errors; for generators.
func (t *Table) MustInsert(row ...value.Value) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int { return len(t.rows) }

// Row returns the i-th row. The returned slice must not be mutated.
func (t *Table) Row(i int) []value.Value { return t.rows[i] }

// ScanColumn calls fn for every value (including NULLs) of the named
// column, in row order. It returns the number of values visited.
func (t *Table) ScanColumn(name string, fn func(value.Value)) (int, error) {
	i, ok := t.colIndex[name]
	if !ok {
		return 0, fmt.Errorf("relstore: table %q: unknown column %q", t.Name, name)
	}
	for _, r := range t.rows {
		fn(r[i])
	}
	return len(t.rows), nil
}

// HasNonNull reports whether the named column holds at least one
// non-null value. It stops at the first one, so on populated columns it
// costs a few rows rather than a statistics pass.
func (t *Table) HasNonNull(name string) (bool, error) {
	i, ok := t.colIndex[name]
	if !ok {
		return false, fmt.Errorf("relstore: table %q: unknown column %q", t.Name, name)
	}
	for _, r := range t.rows {
		if !r[i].IsNull() {
			return true, nil
		}
	}
	return false, nil
}

// computeStats refreshes per-column statistics if rows changed.
func (t *Table) computeStats() {
	if !t.statsDirty && t.stats != nil {
		return
	}
	stats := make([]ColumnStats, len(t.Columns))
	for ci := range t.Columns {
		var acc StatsAccumulator
		for _, r := range t.rows {
			if v := r[ci]; v.IsNull() {
				acc.AddNull()
			} else {
				acc.Add(v.Canonical())
			}
		}
		stats[ci] = acc.Stats()
	}
	t.stats = stats
	t.statsDirty = false
}

// DistinctCanonical returns the sorted set s(a) of distinct canonical
// encodings of the column's non-null values. It is the in-memory analogue
// of the sorted value files and backs the reference IND checker in tests.
func (t *Table) DistinctCanonical(name string) ([]string, error) {
	i, ok := t.colIndex[name]
	if !ok {
		return nil, fmt.Errorf("relstore: table %q: unknown column %q", t.Name, name)
	}
	set := make(map[string]struct{})
	for _, r := range t.rows {
		if v := r[i]; !v.IsNull() {
			set[v.Canonical()] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}
