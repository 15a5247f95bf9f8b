package ind

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/valfile"
)

// randomAttrs builds a random "database" of nAttrs attributes with value
// sets drawn from a small alphabet (so inclusions actually occur),
// including empty sets, exports the value files into dir, and returns the
// attributes plus the in-memory sets for the reference checker.
func randomAttrs(t *testing.T, rng *rand.Rand, dir string, nAttrs int) ([]*Attribute, map[int][]string) {
	t.Helper()
	attrs := make([]*Attribute, nAttrs)
	sets := make(map[int][]string, nAttrs)
	for i := 0; i < nAttrs; i++ {
		size := rng.Intn(16) // 0 = empty attribute
		set := make(map[string]struct{}, size)
		for j := 0; j < size; j++ {
			set[fmt.Sprintf("v%02d", rng.Intn(13))] = struct{}{}
		}
		vals := make([]string, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		path := filepath.Join(dir, fmt.Sprintf("%03d.val", i))
		n, _, err := extsort.SortToFile(vals, path, extsort.Config{TempDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := valfile.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		rows := n
		if rng.Intn(2) == 0 {
			rows = n + rng.Intn(4) // non-unique: duplicates among rows
		}
		attrs[i] = &Attribute{
			ID:       i,
			Ref:      relstore.ColumnRef{Table: fmt.Sprintf("t%d", i/4), Column: fmt.Sprintf("c%d", i)},
			Rows:     rows,
			NonNull:  rows,
			Distinct: n,
			Unique:   n > 0 && rows == n,
			Path:     path,
		}
		if n > 0 {
			attrs[i].MinCanonical = sorted[0]
			attrs[i].MaxCanonical = sorted[n-1]
		}
		sets[i] = sorted
	}
	return attrs, sets
}

// allPairs builds every dep ⊆ ref candidate, with no pretests, so empty
// dependent and empty referenced sets are exercised too.
func allPairs(attrs []*Attribute) []Candidate {
	var out []Candidate
	for _, d := range attrs {
		for _, r := range attrs {
			if d != r {
				out = append(out, Candidate{Dep: d, Ref: r})
			}
		}
	}
	return out
}

// TestSpiderMergePropertyAgreement is the cross-algorithm property test:
// on randomly generated databases, SpiderMerge (over files, memory, and
// streaming sorter cursors), BruteForce, SinglePass and the in-memory
// Reference all return identical IND sets and agree on the candidate and
// satisfied counts.
func TestSpiderMergePropertyAgreement(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			attrs, sets := randomAttrs(t, rng, dir, 3+rng.Intn(12))
			cands := allPairs(attrs)

			want := Reference(cands, sets)

			var bfC valfile.ReadCounter
			bf, err := BruteForce(cands, BruteForceOptions{Counter: &bfC})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := SinglePass(cands, SinglePassOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var smC valfile.ReadCounter
			sm, err := SpiderMerge(cands, SpiderMergeOptions{Counter: &smC})
			if err != nil {
				t.Fatal(err)
			}
			smMem, err := SpiderMerge(cands, SpiderMergeOptions{Source: memSource(sets)})
			if err != nil {
				t.Fatal(err)
			}
			// Streaming: feed each attribute's values (shuffled, with
			// duplicates) through a tiny-budget external sorter and merge
			// straight from the spill runs.
			src := sharedRunsSource(t, rng, dir, attrs, sets)
			smStream, err := SpiderMerge(cands, SpiderMergeOptions{Source: src})
			src.Close()
			if err != nil {
				t.Fatal(err)
			}

			for name, got := range map[string]*Result{
				"brute-force":         bf,
				"single-pass":         sp,
				"spider-merge":        sm,
				"spider-merge/memory": smMem,
				"spider-merge/stream": smStream,
			} {
				if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
					t.Errorf("%s INDs = %v\nwant %v", name, got.Satisfied, want.Satisfied)
				}
				if got.Stats.Candidates != want.Stats.Candidates {
					t.Errorf("%s Candidates = %d, want %d", name, got.Stats.Candidates, want.Stats.Candidates)
				}
				if got.Stats.Satisfied != want.Stats.Satisfied {
					t.Errorf("%s Satisfied = %d, want %d", name, got.Stats.Satisfied, want.Stats.Satisfied)
				}
			}
			// The heap merge reads each value file at most once, so it can
			// never read more items than one brute-force sweep over all
			// candidate pairs.
			if smC.Total() > bfC.Total() {
				t.Errorf("spider-merge read %d items, brute force %d", smC.Total(), bfC.Total())
			}
		})
	}
}

// TestSpiderMergeEmptyCandidates covers the degenerate run.
func TestSpiderMergeEmptyCandidates(t *testing.T) {
	res, err := SpiderMerge(nil, SpiderMergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 0 || res.Stats.Candidates != 0 {
		t.Errorf("empty run = %+v", res.Stats)
	}
}

// TestSpiderMergeUnexported mirrors the brute-force/single-pass guard:
// attributes without exported files must fail through the file source.
func TestSpiderMergeUnexported(t *testing.T) {
	a := &Attribute{ID: 0, Ref: relstore.ColumnRef{Table: "t", Column: "a"}, NonNull: 1, Distinct: 1}
	b := &Attribute{ID: 1, Ref: relstore.ColumnRef{Table: "t", Column: "b"}, NonNull: 1, Distinct: 1}
	if _, err := SpiderMerge([]Candidate{{Dep: a, Ref: b}}, SpiderMergeOptions{}); err == nil {
		t.Error("spider merge on unexported attributes must fail")
	}
}

// TestSpiderMergeClosesEarly asserts the early-close optimisation: once
// every candidate is decided, remaining values are not read. A huge
// referenced attribute whose only dependent refutes on the first value
// must not be read to the end.
func TestSpiderMergeClosesEarly(t *testing.T) {
	dir := t.TempDir()
	big := make([]string, 1000)
	for i := range big {
		big[i] = fmt.Sprintf("x%04d", i)
	}
	depVals := []string{"a"} // sorts before every "x...": refuted at once
	write := func(name string, vals []string, id int) *Attribute {
		path := filepath.Join(dir, name)
		if _, err := valfile.WriteAll(path, vals); err != nil {
			t.Fatal(err)
		}
		return &Attribute{
			ID: id, Ref: relstore.ColumnRef{Table: "t", Column: name},
			Rows: len(vals), NonNull: len(vals), Distinct: len(vals), Unique: true, Path: path,
		}
	}
	dep := write("dep", depVals, 0)
	ref := write("ref", big, 1)
	var c valfile.ReadCounter
	res, err := SpiderMerge([]Candidate{{Dep: dep, Ref: ref}}, SpiderMergeOptions{Counter: &c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 0 {
		t.Errorf("candidate must be refuted: %v", res.Satisfied)
	}
	if c.Total() > 10 {
		t.Errorf("early close failed: read %d items from a refuted candidate", c.Total())
	}
}
