package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"spider/internal/sketch"
)

// openFDs counts the process's open file descriptors.
func openFDs() (int, error) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, err
	}
	// ReadDir itself held one descriptor open while listing.
	return len(ents) - 1, nil
}

// settledFDs waits up to a second for the descriptor count to fall back
// to want (closed connections release their descriptors asynchronously)
// and returns how many remain above it.
func settledFDs(want int) (int, error) {
	deadline := time.Now().Add(time.Second)
	for {
		n, err := openFDs()
		if err != nil {
			return 0, err
		}
		if n <= want || time.Now().After(deadline) {
			if n < want {
				n = want
			}
			return n - want, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// initPoller opens and closes one file so that the runtime's network
// poller descriptors exist before any descriptor baseline is taken.
func initPoller(dir string) error {
	f, err := os.CreateTemp(dir, "fd-probe-")
	if err != nil {
		return err
	}
	f.Close()
	return os.Remove(f.Name())
}

// valueFile matches the files a finished export leaves per attribute: the
// sorted value file, named NNNNN_table_column.val, and its sketch
// sidecar.
var valueFile = regexp.MustCompile(`^\d{5}_[A-Za-z0-9_-]+\.val(` + regexp.QuoteMeta(sketch.FileSuffix) + `)?$`)

// dirCensus walks dir and returns its total file bytes and the paths of
// files that are neither value files nor sidecars (spill runs, temporary
// files) — leftovers of the program.
func dirCensus(dir string) (bytes int64, stray []string, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		if !valueFile.MatchString(d.Name()) {
			stray = append(stray, path)
		}
		return nil
	})
	return bytes, stray, err
}

// tmpEntries lists what the process's temporary directory holds.
func tmpEntries() ([]string, error) {
	var out []string
	root := os.TempDir()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != root {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// newEntries returns the entries of after that are not in before.
func newEntries(before, after []string) []string {
	seen := make(map[string]bool, len(before))
	for _, p := range before {
		seen[p] = true
	}
	var out []string
	for _, p := range after {
		if !seen[p] {
			out = append(out, p)
		}
	}
	return out
}

// resetPeakRSS restarts the kernel's peak-RSS watermark (VmHWM).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the peak resident set since the last reset.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
