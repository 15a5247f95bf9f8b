package ind

import (
	"reflect"
	"testing"
)

// The Dasu et al. resemblance pretest with MinContainment = 1 must never
// prune a satisfied candidate: a dependent sketch minimum below the
// referenced cut-off is necessarily in the referenced bottom-k when the
// containment truly holds.
func TestResemblancePretestNeverPrunesSatisfied(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		db := randomDB(seed)
		attrs, err := Prepare(db, ExportConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		cands, _ := GenerateCandidates(attrs, GenOptions{})
		want, err := BruteForce(cands, BruteForceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{4, 16, 64} {
			kept, st, err := ResemblancePretest(db, cands, ResemblanceOptions{SketchSize: size})
			if err != nil {
				t.Fatal(err)
			}
			got, err := BruteForce(kept, BruteForceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
				t.Errorf("seed %d size %d: pretest pruned a satisfied candidate", seed, size)
			}
			if len(cands) > 0 && st.SketchesBuilt == 0 {
				t.Error("sketches not built")
			}
		}
	}
}

func TestResemblancePretestPrunes(t *testing.T) {
	db := buildDB(t)
	attrs := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	kept, st, err := ResemblancePretest(db, cands, ResemblanceOptions{SketchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) >= len(cands) {
		t.Errorf("pretest pruned nothing (%d of %d kept)", len(kept), len(cands))
	}
	if st.Pruned != len(cands)-len(kept) {
		t.Error("Pruned count wrong")
	}
}

func TestEstimateContainment(t *testing.T) {
	mk := func(vals ...string) *Sketch {
		s := &Sketch{n: len(vals)}
		for _, v := range vals {
			s.hashes = append(s.hashes, hash64(v))
		}
		sortHashes(s.hashes)
		return s
	}
	a := mk("x", "y")
	b := mk("x", "y", "z")
	if got := EstimateContainment(a, b); got != 1 {
		t.Errorf("contained estimate = %v, want 1", got)
	}
	c := mk("p", "q", "r")
	if got := EstimateContainment(a, c); got == 1 {
		t.Error("disjoint sets must estimate below 1")
	}
	empty := &Sketch{}
	if got := EstimateContainment(empty, c); got != 1 {
		t.Errorf("empty dep estimate = %v, want 1", got)
	}
}

func sortHashes(hs []uint64) {
	for i := 1; i < len(hs); i++ {
		for j := i; j > 0 && hs[j] < hs[j-1]; j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
}
