package spider

import (
	"fmt"

	"spider/internal/store"
)

// Store selects the dataset backend attribute value sets are extracted
// into and the discovery engines read from. The zero value of the
// option structs (a nil *Store) keeps the historical behaviour: sorted
// value files under the run's work directory.
//
// Three backends exist:
//
//   - NewFSStore: value files on disk, in the text or block encoding —
//     the paper's layout. Extraction output survives the run and can be
//     inspected or re-served.
//   - NewMemStore: everything in memory. No files are created (n-ary
//     and embedded sort spills excepted); extraction and verification run against sorted
//     in-memory slices.
//   - NewSnapshotStore: extraction lands in memory, and the engines
//     read through an immutable read-only snapshot that caches each
//     value set on first use — the serving shape a long-lived IND
//     service needs, safe for any number of concurrent readers.
//
// A Store value may be reused across calls; the mem and snapshot
// backends then accumulate and re-serve the same attribute value sets.
type Store struct {
	kind   storeKind
	dir    string
	format Format
	mem    *store.Mem
}

type storeKind int

const (
	storeKindFS storeKind = iota
	storeKindMem
	storeKindSnapshot
)

// NewFSStore returns a filesystem-backed store rooted at dir, writing
// newly extracted value sets in format. An empty dir defers to the
// run's work directory (Options.WorkDir, or a temporary directory).
func NewFSStore(dir string, format Format) *Store {
	return &Store{kind: storeKindFS, dir: dir, format: format}
}

// NewMemStore returns an in-memory store: extraction writes sorted
// slices, engines read them, nothing touches disk except the n-ary and
// embedded paths' sort spills.
func NewMemStore() *Store {
	return &Store{kind: storeKindMem, mem: store.NewMem()}
}

// NewSnapshotStore returns a store whose extraction side is in-memory
// and whose engine side is a read-only snapshot over it, safe for
// concurrent readers.
func NewSnapshotStore() *Store {
	return &Store{kind: storeKindSnapshot, mem: store.NewMem()}
}

// ParseBackend maps a backend name ("fs", "mem" or "snapshot"; "" means
// fs) onto a store; dir and format configure the fs backend and are
// ignored by the others.
func ParseBackend(name, dir string, format Format) (*Store, error) {
	switch name {
	case "", "fs":
		return NewFSStore(dir, format), nil
	case "mem":
		return NewMemStore(), nil
	case "snapshot":
		return NewSnapshotStore(), nil
	default:
		return nil, fmt.Errorf("spider: unknown backend %q (want fs, mem or snapshot)", name)
	}
}

// String names the backend.
func (s *Store) String() string {
	if s == nil {
		return "fs"
	}
	switch s.kind {
	case storeKindMem:
		return "mem"
	case storeKindSnapshot:
		return "snapshot"
	default:
		return "fs"
	}
}

// needsDir reports whether the run must provide a work directory for
// the store's extraction output (the fs backend without its own root).
func (s *Store) needsDir() bool {
	return s == nil || (s.kind == storeKindFS && s.dir == "")
}

// inMemory reports whether extraction output never touches the
// filesystem (the mem and snapshot backends).
func (s *Store) inMemory() bool {
	return s != nil && s.kind != storeKindFS
}

// datasets resolves the store to its extraction-side and engine-side
// datasets for one run rooted at workDir. For the snapshot backend the
// two differ: writes land in the backing memory, reads go through a
// fresh read-only snapshot of it.
func (s *Store) datasets(workDir string) (write, read store.Dataset) {
	switch s.kind {
	case storeKindMem:
		return s.mem, s.mem
	case storeKindSnapshot:
		return s.mem, store.NewSnapshot(s.mem)
	default:
		dir := s.dir
		if dir == "" {
			dir = workDir
		}
		fs := store.NewFS(dir, s.format.internal())
		return fs, fs
	}
}
