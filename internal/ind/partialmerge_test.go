package ind

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"spider/internal/relstore"
	"spider/internal/valfile"
)

// TestPartialSpiderMergeMatchesBruteForce is the partial engine's pinning
// property test: on random dirty databases, PartialSpiderMerge unsharded
// and at S ∈ {1, 2, 4} — over files, memory, and frozen spill runs —
// returns results identical to BruteForcePartial at
// several thresholds: same satisfied sets, same coverages, same Missing
// counts.
func TestPartialSpiderMergeMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			attrs, sets := randomAttrs(t, rng, dir, 3+rng.Intn(10))
			cands := allPairs(attrs)

			for _, sigma := range []float64{0.5, 0.8, 1.0} {
				var bfC valfile.ReadCounter
				want, err := BruteForcePartial(cands, PartialOptions{Threshold: sigma, Counter: &bfC})
				if err != nil {
					t.Fatal(err)
				}

				var pmC valfile.ReadCounter
				got, err := PartialSpiderMerge(cands, PartialMergeOptions{Threshold: sigma, Counter: &pmC})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
					t.Fatalf("σ=%g: merge disagrees with brute force:\ngot  %v\nwant %v",
						sigma, got.Satisfied, want.Satisfied)
				}
				if got.Stats.ItemsRead != pmC.Total() {
					t.Errorf("σ=%g: ItemsRead = %d, counter %d", sigma, got.Stats.ItemsRead, pmC.Total())
				}
				// One pass over every attribute can never read more than the
				// per-candidate rescans.
				if pmC.Total() > bfC.Total() {
					t.Errorf("σ=%g: merge read %d items, brute force %d", sigma, pmC.Total(), bfC.Total())
				}

				for _, shards := range []int{1, 2, 4} {
					workers := 1 + rng.Intn(4)
					sharded, err := PartialSpiderMerge(cands, PartialMergeOptions{
						Threshold: sigma, Shards: shards, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					mem, err := PartialSpiderMerge(cands, PartialMergeOptions{
						Threshold: sigma, Source: memSource(sets),
						Shards: shards, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					src := sharedRunsSource(t, rng, dir, attrs, sets)
					stream, err := PartialSpiderMerge(cands, PartialMergeOptions{
						Threshold: sigma, Source: src, Shards: shards, Workers: workers,
					})
					src.Close()
					if err != nil {
						t.Fatal(err)
					}
					for name, res := range map[string]*PartialResult{
						"files":  sharded,
						"memory": mem,
						"stream": stream,
					} {
						if !reflect.DeepEqual(res.Satisfied, want.Satisfied) {
							t.Errorf("σ=%g S=%d/%s disagrees with brute force:\ngot  %v\nwant %v",
								sigma, shards, name, res.Satisfied, want.Satisfied)
						}
					}
				}
			}
		})
	}
}

// partialAttr exports one hand-built value set and returns its attribute.
func partialAttr(t *testing.T, dir string, id int, name string, vals []string) *Attribute {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("p%03d.val", id))
	if _, err := valfile.WriteAll(path, vals); err != nil {
		t.Fatal(err)
	}
	a := &Attribute{
		ID:       id,
		Ref:      relstore.ColumnRef{Table: "t", Column: name},
		Rows:     len(vals),
		NonNull:  len(vals),
		Distinct: len(vals),
		Unique:   true,
		Path:     path,
	}
	if len(vals) > 0 {
		a.MinCanonical = vals[0]
		a.MaxCanonical = vals[len(vals)-1]
	}
	return a
}

// TestPartialMergeIntegralThreshold pins the boundary where σ·|s(a)| is
// exactly integral: 10 dependent values at σ = 0.9 tolerate exactly one
// miss — a second miss refutes — in both engines at every shard count.
func TestPartialMergeIntegralThreshold(t *testing.T) {
	dir := t.TempDir()
	ref := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		ref = append(ref, fmt.Sprintf("r%02d", i))
	}
	mk := func(id int, name string, miss int) *Attribute {
		vals := append([]string(nil), ref[:10-miss]...)
		for i := 0; i < miss; i++ {
			vals = append(vals, fmt.Sprintf("x%02d", i)) // dangling, sorts after r*
		}
		return partialAttr(t, dir, id, name, vals)
	}
	refAttr := partialAttr(t, dir, 0, "ref", ref)
	oneMiss := mk(1, "one", 1)
	twoMiss := mk(2, "two", 2)
	cands := []Candidate{
		{Dep: oneMiss, Ref: refAttr},
		{Dep: twoMiss, Ref: refAttr},
	}
	want, err := BruteForcePartial(cands, PartialOptions{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Satisfied) != 1 || want.Satisfied[0].Dep.Column != "one" ||
		want.Satisfied[0].Missing != 1 || want.Satisfied[0].Coverage != 0.9 {
		t.Fatalf("brute-force baseline unexpected: %+v", want.Satisfied)
	}
	for _, shards := range []int{1, 2, 4} {
		got, err := PartialSpiderMerge(cands, PartialMergeOptions{Threshold: 0.9, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
			t.Errorf("S=%d: %+v, want %+v", shards, got.Satisfied, want.Satisfied)
		}
	}
}

// TestPartialMergeEmptyDependent pins the degenerate case: an empty
// dependent set is trivially (fully) included at every threshold.
func TestPartialMergeEmptyDependent(t *testing.T) {
	dir := t.TempDir()
	empty := partialAttr(t, dir, 0, "empty", nil)
	ref := partialAttr(t, dir, 1, "ref", []string{"a", "b"})
	cands := []Candidate{{Dep: empty, Ref: ref}}
	for _, sigma := range []float64{0.5, 1.0} {
		want, err := BruteForcePartial(cands, PartialOptions{Threshold: sigma})
		if err != nil {
			t.Fatal(err)
		}
		got, err := PartialSpiderMerge(cands, PartialMergeOptions{Threshold: sigma})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
			t.Fatalf("σ=%g: %+v, want %+v", sigma, got.Satisfied, want.Satisfied)
		}
		if len(got.Satisfied) != 1 || got.Satisfied[0].Coverage != 1 || got.Satisfied[0].Missing != 0 {
			t.Errorf("σ=%g: empty dependent must be trivially included: %+v", sigma, got.Satisfied)
		}
	}
}

// TestPartialMergeRejectsBadThreshold mirrors the brute-force validation.
func TestPartialMergeRejectsBadThreshold(t *testing.T) {
	for _, sigma := range []float64{0, -0.5, 1.5} {
		if _, err := PartialSpiderMerge(nil, PartialMergeOptions{Threshold: sigma}); err == nil {
			t.Errorf("PartialSpiderMerge must reject threshold %v", sigma)
		}
		if _, err := PartialSpiderMerge(nil, PartialMergeOptions{Threshold: sigma, Shards: 3}); err == nil {
			t.Errorf("sharded PartialSpiderMerge must reject threshold %v", sigma)
		}
	}
}

// TestPartialMergeCorruptFile mirrors the brute-force error path.
func TestPartialMergeCorruptFile(t *testing.T) {
	db := buildDB(t)
	attrs := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{PartialThreshold: 0.5})
	for _, a := range attrs {
		if err := writeCorrupt(a.Path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := PartialSpiderMerge(cands, PartialMergeOptions{Threshold: 0.5}); err == nil {
		t.Error("partial merge must report corrupt file")
	}
	if _, err := PartialSpiderMerge(cands, PartialMergeOptions{Threshold: 0.5, Shards: 3}); err == nil {
		t.Error("sharded partial merge must report corrupt file")
	}
}

// TestPartialThresholdCardinalityBound pins the σ-aware candidate
// pretest: a dependent with more distinct values than the referenced
// side survives generation at σ < 1 (it can still reach σ-coverage) and
// the resulting partial IND is found; at σ = 1 the bound degenerates to
// the exact-IND prune.
func TestPartialThresholdCardinalityBound(t *testing.T) {
	dir := t.TempDir()
	// 100 distinct dependent values, 95 of them in the referenced set:
	// coverage 0.95 ≥ σ = 0.9 even though 100 > 95.
	dep := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		dep = append(dep, fmt.Sprintf("v%03d", i))
	}
	depAttr := partialAttr(t, dir, 0, "dep", dep)
	refAttr := partialAttr(t, dir, 1, "ref", dep[:95])
	attrs := []*Attribute{depAttr, refAttr}

	exact, _ := GenerateCandidates(attrs, GenOptions{})
	for _, c := range exact {
		if c.Dep == depAttr {
			t.Fatalf("exact pretest must prune %s", c)
		}
	}
	sigmaOne, _ := GenerateCandidates(attrs, GenOptions{PartialThreshold: 1})
	for _, c := range sigmaOne {
		if c.Dep == depAttr {
			t.Fatalf("σ=1 pretest must degenerate to the exact prune, kept %s", c)
		}
	}
	partial, st := GenerateCandidates(attrs, GenOptions{PartialThreshold: 0.9})
	var cand *Candidate
	for i := range partial {
		if partial[i].Dep == depAttr {
			cand = &partial[i]
		}
	}
	if cand == nil {
		t.Fatalf("σ=0.9 pretest wrongly pruned the viable candidate (stats %+v)", st)
	}
	res, err := PartialSpiderMerge([]Candidate{*cand}, PartialMergeOptions{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 1 || res.Satisfied[0].Missing != 5 || res.Satisfied[0].Coverage != 0.95 {
		t.Errorf("partial IND not found: %+v", res.Satisfied)
	}
}
