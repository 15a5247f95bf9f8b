package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"spider"
	"spider/internal/ind"
)

// TestOracleCatchesWrongVerdict builds a wrong answer from a correct one
// — one satisfied IND dropped, one refuted pair claimed — and checks
// that the comparison every discovery call goes through reports both.
func TestOracleCatchesWrongVerdict(t *testing.T) {
	db := spider.GenerateSCOP(spider.DatasetConfig{Seed: 7, Scale: 0.05})
	want, err := narySCOP.oracle(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spider.FindINDs(db, spider.Options{Algorithm: spider.InMemory})
	if err != nil {
		t.Fatal(err)
	}
	unary := unaryVerdicts(res.INDs)
	if len(unary) == 0 {
		t.Fatal("the test dataset has no satisfied unary IND to corrupt")
	}
	got, err := batchSpec{}.discover(db, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if d := unary.diff(got); d != "" {
		t.Fatalf("correct SpiderMerge verdicts rejected: %s", d)
	}
	if d := want.diff(want); d != "" {
		t.Fatalf("n-ary oracle disagrees with itself: %s", d)
	}

	wrong := append(verdicts{"cla.sunid ⊆ des.description"}, got[1:]...)
	d := unary.diff(wrong)
	if d == "" {
		t.Fatal("a wrong verdict set passed the oracle")
	}
	if !strings.Contains(d, "cla.sunid ⊆ des.description") || !strings.Contains(d, got[0]) {
		t.Errorf("diff %q does not name the wrong and the missing IND", d)
	}
	if d := unary.diff(append(append(verdicts{}, got...), got[0])); d == "" {
		t.Error("a duplicated verdict passed the oracle")
	}
}

// TestFailedCheckFailsTheRun checks that one failed oracle check makes
// the command print correct=false and exit non-zero.
func TestFailedCheckFailsTheRun(t *testing.T) {
	workloads["wrong-verdict"] = func(cfg config) (*outcome, error) {
		out := &outcome{attempted: 3, metrics: map[string]float64{}}
		for _, s := range endToEnd {
			out.metrics[s.name] = 1
		}
		out.fail("call 1: verdicts differ from the oracle")
		return out, nil
	}
	defer delete(workloads, "wrong-verdict")
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "wrong-verdict", "--scratch", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("exit status 0 after a failed check")
	}
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 3 {
		t.Errorf("result = %+v, want correct=false, failed=1 of 3", res)
	}
	if !strings.Contains(stderr.String(), "verdicts differ") {
		t.Errorf("stderr %q does not report the failed check", stderr.String())
	}
}

// TestServeChecksCatchWrongAnswers feeds each serving check an answer
// that contradicts the oracle.
func TestServeChecksCatchWrongAnswers(t *testing.T) {
	dep := &ind.Attribute{}
	c := &loadClient{}
	for _, tc := range []struct {
		name string
		op   int
		body any
		mq   memberQ
		pq   pairQ
		iq   indsQ
	}{
		{name: "member present reported absent", op: opMember,
			body: map[string]any{"member": false, "canonical": "42", "source": "bloom"},
			mq:   memberQ{canonical: "42", want: true}},
		{name: "member absent reported present", op: opMember,
			body: map[string]any{"member": true, "canonical": "x", "source": "cursor"},
			mq:   memberQ{canonical: "x", want: false}},
		{name: "verify disagrees with discovery", op: opVerify,
			body: map[string]any{"satisfied": true, "matches_discovery": false},
			pq:   pairQ{dep: dep, ref: dep, holds: true}},
		{name: "verify wrong verdict", op: opVerify,
			body: map[string]any{"satisfied": true, "matches_discovery": true},
			pq:   pairQ{dep: dep, ref: dep, holds: false}},
		{name: "inds total off", op: opINDs,
			body: map[string]any{"total": 3}, iq: indsQ{total: 4}},
		{name: "containment refutes a holding IND", op: opContainment,
			body: map[string]any{"dep": dep.Ref.String(), "ref": dep.Ref.String(), "estimate": 0.5,
				"probed": 10, "hits": 9, "definite_misses": 1, "refutes_exact": true},
			pq: pairQ{dep: dep, ref: dep, holds: true}},
		{name: "reload without a new generation", op: opReload,
			body: map[string]any{"generation": 0}},
	} {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if msg := c.check(tc.op, body, tc.mq, tc.pq, tc.iq); msg == "" {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units
// the command prints in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", kind, len(declared), len(printed))
			return
		}
		for i := range printed {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command knows %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the command", w.Name)
		}
	}
}
