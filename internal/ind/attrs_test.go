package ind

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/value"
)

// TestExtractCancelLeavesNoSpillRuns pins the cleanup of a failed
// extraction scan: the sorter spills every four values, the cancel
// channel closes once the first run is on disk, and the next spill
// fails. The runs already written must go with the failed sorter.
func TestExtractCancelLeavesNoSpillRuns(t *testing.T) {
	db := relstore.NewDatabase("spill")
	tab := db.MustCreateTable("t", []relstore.Column{{Name: "v", Kind: value.Int}})
	// Far more spills than the watcher needs to notice the first one.
	for i := 0; i < 200_000; i++ {
		tab.MustInsert(value.NewInt(int64(i)))
	}
	dir := t.TempDir()
	cancel := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(cancel)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if runs, _ := filepath.Glob(filepath.Join(dir, "extsort-run-*.val")); len(runs) > 0 {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	a := &Attribute{Ref: relstore.ColumnRef{Table: "t", Column: "v"}}
	sorter, err := extract(db, a, ExportConfig{Sort: extsort.Config{MaxInMemory: 4, TempDir: dir, Cancel: cancel}})
	close(stop)
	<-cancel
	if err == nil {
		sorter.Discard()
		t.Fatal("the scan finished before the cancel fired; no failed spill to clean up")
	}
	if !errors.Is(err, extsort.ErrCanceled) {
		t.Fatalf("err = %v, want extsort.ErrCanceled", err)
	}
	if left := spillRuns(t, dir); len(left) > 0 {
		t.Errorf("failed scan left %d spill runs: %v", len(left), left)
	}
	if entries, _ := os.ReadDir(dir); len(entries) > 0 {
		t.Errorf("failed scan left %d files in the temp dir", len(entries))
	}
}
