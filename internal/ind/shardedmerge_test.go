package ind

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spider/internal/datagen"
	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/valfile"
)

// sharedRunsSource builds a RunsSource feeding each attribute's values
// (shuffled, duplicated) through a tiny-budget external sorter, so the
// spill-run replay path is exercised.
func sharedRunsSource(t *testing.T, rng *rand.Rand, dir string, attrs []*Attribute, sets map[int][]string) *RunsSource {
	t.Helper()
	src := NewRunsSource(nil)
	for _, a := range attrs {
		sorter := extsort.New(extsort.Config{MaxInMemory: 4, TempDir: dir})
		vals := append([]string(nil), sets[a.ID]...)
		vals = append(vals, sets[a.ID]...) // duplicates
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for _, v := range vals {
			if err := sorter.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		runs, err := sorter.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		src.Add(a, runs)
	}
	return src
}

// TestShardedSpiderMergePropertyAgreement is the sharded merge's
// cross-algorithm property test: on randomly generated databases,
// SpiderMerge at S ∈ {1, 2, 4, 7} — over files, memory, and frozen
// spill runs — agrees exactly with the in-memory Reference oracle and
// with the unsharded SpiderMerge.
func TestShardedSpiderMergePropertyAgreement(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			attrs, sets := randomAttrs(t, rng, dir, 3+rng.Intn(12))
			cands := allPairs(attrs)

			want := Reference(cands, sets)
			sm, err := SpiderMerge(cands, SpiderMergeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sm.Satisfied, want.Satisfied) {
				t.Fatalf("spider-merge disagrees with reference: %v vs %v", sm.Satisfied, want.Satisfied)
			}

			for _, shards := range []int{1, 2, 4, 7} {
				workers := 1 + rng.Intn(4)
				var c valfile.ReadCounter
				got, err := SpiderMerge(cands, SpiderMergeOptions{
					Counter: &c, Shards: shards, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				gotMem, err := SpiderMerge(cands, SpiderMergeOptions{
					Source: memSource(sets), Shards: shards, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				src := sharedRunsSource(t, rng, dir, attrs, sets)
				gotStream, err := SpiderMerge(cands, SpiderMergeOptions{
					Source: src, Shards: shards, Workers: workers,
				})
				src.Close()
				if err != nil {
					t.Fatal(err)
				}

				for name, res := range map[string]*Result{
					"files":  got,
					"memory": gotMem,
					"stream": gotStream,
				} {
					if !reflect.DeepEqual(res.Satisfied, want.Satisfied) {
						t.Errorf("S=%d/%s INDs = %v\nwant %v", shards, name, res.Satisfied, want.Satisfied)
					}
					if res.Stats.Candidates != want.Stats.Candidates || res.Stats.Satisfied != want.Stats.Satisfied {
						t.Errorf("S=%d/%s stats = %d/%d, want %d/%d", shards, name,
							res.Stats.Candidates, res.Stats.Satisfied,
							want.Stats.Candidates, want.Stats.Satisfied)
					}
				}
				if got.Stats.ItemsRead != c.Total() {
					t.Errorf("S=%d ItemsRead = %d, counter %d", shards, got.Stats.ItemsRead, c.Total())
				}
			}
		})
	}
}

// TestShardedSpiderMergeExplicitBoundaries pins the range semantics: a
// hand-chosen boundary set given to the merge core must split the work
// yet return the same INDs, and boundaries out of order must be
// rejected.
func TestShardedSpiderMergeExplicitBoundaries(t *testing.T) {
	sets := map[int][]string{
		0: {"a", "b", "m", "z"},
		1: {"a", "b", "c", "m", "n", "z"},
		2: {"b", "m"},
	}
	attrs := make([]*Attribute, 3)
	for i := range attrs {
		n := len(sets[i])
		attrs[i] = &Attribute{
			ID: i, Ref: relstore.ColumnRef{Table: "t", Column: fmt.Sprintf("c%d", i)},
			Rows: n, NonNull: n, Distinct: n, Unique: true,
			MinCanonical: sets[i][0], MaxCanonical: sets[i][n-1],
		}
	}
	cands := allPairs(attrs)
	want := Reference(cands, sets)

	run, err := runMerge(cands, 1, memSource(sets), 3, 0, []string{"c", "n"})
	if err != nil {
		t.Fatal(err)
	}
	var got []IND
	for i, c := range run.cands {
		if !run.counts[i].dropped {
			got = append(got, IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref})
		}
	}
	sortINDs(got)
	if !reflect.DeepEqual(got, want.Satisfied) {
		t.Errorf("INDs = %v, want %v", got, want.Satisfied)
	}
	if run.stats.ShardPlanner != "explicit" || len(run.stats.ShardItemsRead) != 3 {
		t.Errorf("planner %q over %d shards, want explicit over 3", run.stats.ShardPlanner, len(run.stats.ShardItemsRead))
	}

	if _, err := runMerge(cands, 1, memSource(sets), 3, 0, []string{"n", "c"}); err == nil {
		t.Error("descending boundaries must be rejected")
	}
}

// TestShardedSpiderMergeEmptyCandidates covers the degenerate run.
func TestShardedSpiderMergeEmptyCandidates(t *testing.T) {
	res, err := SpiderMerge(nil, SpiderMergeOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 0 || res.Stats.Candidates != 0 {
		t.Errorf("empty run = %+v", res.Stats)
	}
}

// TestShardedSpiderMergeStatsAggregation asserts the per-shard stats
// combination rules: Comparisons and FilesOpened sum over shards,
// MaxOpenFiles is the per-merge peak (never more than one cursor per
// involved attribute). The unsharded run carries no shard fields.
func TestShardedSpiderMergeStatsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	attrs, _ := randomAttrs(t, rng, dir, 10)
	cands := allPairs(attrs)

	single, err := SpiderMerge(cands, SpiderMergeOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := SpiderMerge(cands, SpiderMergeOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if single.Stats.ShardPlanner != "" || single.Stats.ShardItemsRead != nil || single.Stats.ShardDurations != nil {
		t.Errorf("unsharded run reports shard stats: %+v", single.Stats)
	}
	// FilesOpened sums across shards; range pruning means a shard opens
	// only its overlapping attributes, so the total is bounded by one
	// open per attribute per shard and must stay positive.
	if sharded.Stats.FilesOpened == 0 || sharded.Stats.FilesOpened > 4*single.Stats.FilesOpened {
		t.Errorf("sharded FilesOpened = %d implausible (single merge: %d)",
			sharded.Stats.FilesOpened, single.Stats.FilesOpened)
	}
	if sharded.Stats.MaxOpenFiles > len(attrs) || sharded.Stats.MaxOpenFiles == 0 {
		t.Errorf("MaxOpenFiles = %d, want in [1, %d] (one cursor per attribute)",
			sharded.Stats.MaxOpenFiles, len(attrs))
	}
	if sharded.Stats.Comparisons == 0 && single.Stats.Comparisons > 0 {
		t.Error("sharded Comparisons not aggregated")
	}
}

// TestShardPlannerPropertyAgreement pins the planner axis of the sharded
// merge: on random databases, runs whose attributes carry KMV value
// samples (kmv planning) and runs without them (min/max planning)
// return the unsharded run's satisfied set at S ∈ {1, 2, 4, 7}, over
// both value files and frozen spill runs — and Stats faithfully records
// which planner actually produced the boundaries.
func TestShardPlannerPropertyAgreement(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			attrs, sets := randomAttrs(t, rng, dir, 3+rng.Intn(12))
			cands := allPairs(attrs)
			want, err := SpiderMerge(cands, SpiderMergeOptions{})
			if err != nil {
				t.Fatal(err)
			}

			for _, withSamples := range []bool{true, false} {
				for _, a := range attrs {
					a.Sketch = nil
					if withSamples {
						a.Sketch = sketchFromSet(sketch.Config{}, sets[a.ID])
					}
				}
				// Mirror the engine's sample-availability rule: the generator
				// can emit an attribute with phantom non-null rows but an empty
				// value set, whose sketch then has no sample — planning must
				// fall back to min/max for the whole run rather than guess.
				haveSamples := false
				for _, a := range attrs {
					if a.Distinct <= 0 && a.NonNull <= 0 {
						continue
					}
					if a.Sketch == nil || len(a.Sketch.Sample()) == 0 {
						haveSamples = false
						break
					}
					haveSamples = true
				}

				for _, shards := range []int{1, 2, 4, 7} {
					got, err := SpiderMerge(cands, SpiderMergeOptions{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					src := sharedRunsSource(t, rng, dir, attrs, sets)
					gotStream, err := SpiderMerge(cands, SpiderMergeOptions{Source: src, Shards: shards})
					src.Close()
					if err != nil {
						t.Fatal(err)
					}
					for name, res := range map[string]*Result{"files": got, "stream": gotStream} {
						if !reflect.DeepEqual(res.Satisfied, want.Satisfied) {
							t.Errorf("S=%d samples=%v %s INDs = %v\nwant %v",
								shards, withSamples, name, res.Satisfied, want.Satisfied)
						}
						wantName := ""
						if shards > 1 {
							wantName = "minmax"
							if haveSamples {
								wantName = "kmv"
							}
						}
						if res.Stats.ShardPlanner != wantName {
							t.Errorf("S=%d samples=%v %s Stats.ShardPlanner = %q, want %q",
								shards, withSamples, name, res.Stats.ShardPlanner, wantName)
						}
						if shards > 1 && len(res.Stats.ShardItemsRead) == 0 {
							t.Errorf("S=%d samples=%v %s missing per-shard read tallies", shards, withSamples, name)
						}
					}
				}
			}
		})
	}
}

// shardSkew is max/mean of the per-shard item-read tallies: 1.0 is a
// perfectly even split, S means one shard did all the work.
func shardSkew(reads []int64) float64 {
	var total, max int64
	for _, n := range reads {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(len(reads)))
}

// TestKMVPlannerBalancesSkew drives both planners over a Zipf-skewed key
// population (datagen.Skewed: distinct keys crowd the low end of the key
// space, outliers stretch the span ~1000x beyond the crowd) and asserts
// the planning claim itself: min/max planning (the attributes stripped
// of their sketches) — equal key range, blind to density — leaves the
// merge lopsided, while KMV sample planning keeps max/mean per-shard
// items read under a tight bound. Both runs must still agree on the
// satisfied set.
func TestKMVPlannerBalancesSkew(t *testing.T) {
	db := datagen.Skewed(datagen.SkewedConfig{Seed: 1})
	dir := t.TempDir()
	attrs, err := Prepare(db, ExportConfig{Dir: dir, Sketches: true})
	if err != nil {
		t.Fatal(err)
	}
	var keys, plain []*Attribute
	for _, a := range attrs {
		if a.Ref.Column == "id" || a.Ref.Column == "fk" {
			keys = append(keys, a)
			stripped := *a
			stripped.Sketch = nil
			plain = append(plain, &stripped)
		}
	}
	if len(keys) != 2 {
		t.Fatalf("expected the two key attributes, got %d", len(keys))
	}

	const shards = 4
	run := func(attrs []*Attribute) *Result {
		t.Helper()
		res, err := SpiderMerge(allPairs(attrs), SpiderMergeOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	kmv := run(keys)
	mm := run(plain)

	if kmv.Stats.ShardPlanner != "kmv" {
		t.Fatalf("kmv run planned by %q (fallback: %q)", kmv.Stats.ShardPlanner, kmv.Stats.ShardPlanFallback)
	}
	if mm.Stats.ShardPlanner != "minmax" {
		t.Fatalf("minmax run planned by %q", mm.Stats.ShardPlanner)
	}
	if !reflect.DeepEqual(kmv.Satisfied, mm.Satisfied) {
		t.Fatalf("planners disagree: %v vs %v", kmv.Satisfied, mm.Satisfied)
	}

	kmvSkew, mmSkew := shardSkew(kmv.Stats.ShardItemsRead), shardSkew(mm.Stats.ShardItemsRead)
	t.Logf("per-shard items read: kmv %v (skew %.2f), minmax %v (skew %.2f)",
		kmv.Stats.ShardItemsRead, kmvSkew, mm.Stats.ShardItemsRead, mmSkew)
	if kmvSkew >= mmSkew {
		t.Errorf("kmv skew %.2f not better than minmax %.2f", kmvSkew, mmSkew)
	}
	if kmvSkew > 1.5 {
		t.Errorf("kmv skew %.2f exceeds 1.5: sample planning failed to balance the shards", kmvSkew)
	}
}
