package extsort

import (
	"encoding/binary"
	"fmt"
)

// RunMeta is the sorter provenance embedded in block-format output
// files under valfile.RunMetaSection: how many values were pushed
// through the sorter (duplicates included) and how many spill runs the
// final merge consumed. The added count recovers the per-attribute
// duplication factor without re-touching the base data; the run count
// records whether the attribute fit in memory.
type RunMeta struct {
	Added     int64
	SpillRuns int
}

const runMetaLen = 16

// Encode serializes the metadata (two little-endian u64s), the
// RunMetaSection payload dataset writers embed next to staged output.
func (m RunMeta) Encode() []byte {
	b := make([]byte, runMetaLen)
	binary.LittleEndian.PutUint64(b[0:8], uint64(m.Added))
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.SpillRuns))
	return b
}

// DecodeRunMeta parses a RunMetaSection payload.
func DecodeRunMeta(b []byte) (RunMeta, error) {
	if len(b) != runMetaLen {
		return RunMeta{}, fmt.Errorf("extsort: run metadata is %d bytes, want %d", len(b), runMetaLen)
	}
	return RunMeta{
		Added:     int64(binary.LittleEndian.Uint64(b[0:8])),
		SpillRuns: int(int64(binary.LittleEndian.Uint64(b[8:16]))),
	}, nil
}
