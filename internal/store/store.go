// Package store is the dataset storage seam: every sorted-distinct
// value stream the engines read, every staged extraction output, every
// persisted sketch and named section flows through a Dataset. The
// merge engines, the extraction path and the CLIs never open a value
// file directly — fsstore (FS) wraps the text/block valfile encodings,
// memstore (Mem) holds datasets in memory, and Snapshot wraps any
// backend read-only with cursor pooling for concurrent readers (the
// indserved precondition).
//
// See README.md in this directory for the interface contract
// (ownership and close rules, range semantics, section names).
package store

import (
	"errors"

	"spider/internal/valfile"
)

// ErrReadOnly is returned by mutating calls on read-only datasets
// (Snapshot, or any future backend that serves frozen data).
var ErrReadOnly = errors.New("store: dataset is read-only")

// Cursor streams one key's sorted distinct values in strictly
// increasing order. Next returns ok=false at end of stream or on
// error, distinguished by Err. Close releases underlying resources and
// must be called exactly once by the opener.
type Cursor interface {
	Next() (v string, ok bool)
	Err() error
	Close() error
}

// *valfile.Reader is the canonical file-backed cursor.
var _ Cursor = (*valfile.Reader)(nil)

// ValueWriter stages one key's sorted distinct value stream plus any
// named sections. Append enforces the strictly-increasing invariant.
// SetSection attaches a named payload (SketchSection, RunMetaSection);
// backends that cannot embed a section in the value stream itself
// persist it out of band (the text encoding's sidecar files) or keep
// it in the dataset's section map. The staged key becomes readable
// only after Close returns nil; Close must be called exactly once.
type ValueWriter interface {
	Append(v string) error
	SetSection(tag string, data []byte) error
	Len() int
	Close() error
}

// Dataset is one logical collection of sorted-distinct value sets,
// keyed by opaque string keys (file paths under fsstore, plain names
// under memstore). All read methods must be safe for concurrent use;
// writes to distinct keys may proceed concurrently, but a key must not
// be read before its writer has been closed.
type Dataset interface {
	// Keys enumerates the readable keys, sorted.
	Keys() ([]string, error)

	// Open returns an unbounded cursor over key's values. Every
	// delivered item (and, where the backend can account for it, every
	// raw byte) is counted by counter; nil disables counting.
	Open(key string, counter *valfile.ReadCounter) (Cursor, error)

	// OpenRange returns a cursor restricted to the canonical value
	// range bounds — a sharded merge's access path. It must be safe
	// to open the same key once per shard, concurrently.
	OpenRange(key string, counter *valfile.ReadCounter, bounds valfile.Range) (Cursor, error)

	// Create stages a new value set under key, replacing any existing
	// one when the returned writer is closed.
	Create(key string) (ValueWriter, error)

	// Remove deletes key's values and sections. Removing an absent key
	// is an error.
	Remove(key string) error

	// Section returns the named section attached to key; ok is false
	// when the key exists but carries no such section.
	Section(key, tag string) (data []byte, ok bool, err error)

	// Sample returns up to max cheap order statistics of key's value
	// set (ascending, possibly fewer than max) for shard boundary
	// planning. The sample carries no accuracy guarantee beyond being
	// actual values of the set.
	Sample(key string, max int) ([]string, error)
}
