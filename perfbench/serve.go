package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spider"
	"spider/internal/datagen"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/serve"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

const (
	// serveScale sizes the served UniProt export.
	serveScale = 5
	// serveClients is the closed loop's client count: one per core of
	// the two-core machine the benchmark was sized on.
	serveClients = 2
	// reloadEvery is how many of its own requests client 0 sends between
	// two reloads.
	reloadEvery = 4000
	// memberKeys is the size of the member-key universe; the Zipf head
	// fits the server's 1,024-entry response cache and the tail does not.
	memberKeys = 20000
	// serveSetups is how many times set-up is repeated for setup_s.
	serveSetups = 3
	datasetName = "uniprot"
)

// Operation kinds of the mix, in the order their shares are drawn.
const (
	opMember = iota
	opContainment
	opINDs
	opVerify
	opReload
	numOps
)

var opNames = [numOps]string{"member", "containment", "inds", "verify", "reload"}

// mixShares are the cumulative shares of member, containment, inds and
// verify in the closed loop (reloads are scheduled by count).
var mixShares = [opVerify + 1]float64{0.70, 0.85, 0.95, 1.0}

// serveOracle holds every question the clients may ask, with its
// expected answer, computed once in set-up from the generated data.
type serveOracle struct {
	members    []memberQ
	pairs      []pairQ
	indsQs     []indsQ
	verifies   []pairQ
	canonBytes int64
}

type memberQ struct {
	url, canonical string
	attr           *ind.Attribute
	want           bool
}

type pairQ struct {
	url      string
	dep, ref *ind.Attribute
	holds    bool
}

type indsQ struct {
	url   string
	total int
}

// buildServeOracle derives the member keys, containment pairs, inds
// queries and verify pairs from the relational data, with their true
// answers: value sets from the columns, canonicalised through each
// attribute's kind, and IND verdicts from the in-memory engine.
func buildServeOracle(seed int64, want verdicts) (*serveOracle, error) {
	rel := datagen.UniProt(datagen.UniProtConfig{Seed: seed, Scale: serveScale})
	attrs, err := ind.CollectAttributes(rel)
	if err != nil {
		return nil, err
	}
	o := &serveOracle{}
	sets := make(map[int][]string, len(attrs))
	shown := make(map[int][]string, len(attrs))
	var nonEmpty []*ind.Attribute
	for _, a := range attrs {
		set, disp, err := columnValues(rel, a)
		if err != nil {
			return nil, err
		}
		sets[a.ID], shown[a.ID] = set, disp
		if a.NonNull > 0 {
			nonEmpty = append(nonEmpty, a)
		}
	}
	o.canonBytes = measureInput(rel).canonicalBytes

	rng := rand.New(rand.NewSource(seed))
	base := "/v1/member?dataset=" + datasetName
	for i := 0; i < memberKeys; i++ {
		a := nonEmpty[rng.Intn(len(nonEmpty))]
		var raw string
		if i%2 == 0 {
			raw = shown[a.ID][rng.Intn(len(shown[a.ID]))]
		} else {
			raw = absentValue(a.Kind, rng)
		}
		q := memberQ{url: base + "&attr=" + url.QueryEscape(a.Ref.String()) + "&value=" + url.QueryEscape(raw), attr: a}
		if v := value.Parse(raw, a.Kind); !v.IsNull() {
			q.canonical = v.Canonical()
			q.want = contains(sets[a.ID], q.canonical)
		}
		o.members = append(o.members, q)
	}

	holds := make(map[string]bool, len(want))
	for _, s := range want {
		holds[s] = true
	}
	for len(o.pairs) < 1000 {
		dep, ref := nonEmpty[rng.Intn(len(nonEmpty))], nonEmpty[rng.Intn(len(nonEmpty))]
		if dep == ref {
			continue
		}
		o.pairs = append(o.pairs, pairQ{
			url: "/v1/containment?dataset=" + datasetName + "&dep=" + url.QueryEscape(dep.Ref.String()) +
				"&ref=" + url.QueryEscape(ref.Ref.String()),
			dep: dep, ref: ref, holds: subset(sets[dep.ID], sets[ref.ID]),
		})
	}

	count := func(match func(dep, ref string) bool) int {
		n := 0
		for _, s := range want {
			dep, ref := splitIND(s)
			if match(dep, ref) {
				n++
			}
		}
		return n
	}
	indsBase := "/v1/inds?dataset=" + datasetName + "&limit=20"
	o.indsQs = append(o.indsQs, indsQ{indsBase, len(want)})
	for _, a := range attrs {
		name := a.Ref.String()
		o.indsQs = append(o.indsQs, indsQ{indsBase + "&attr=" + url.QueryEscape(name),
			count(func(dep, ref string) bool { return dep == name || ref == name })})
	}
	for _, t := range rel.Tables() {
		table := t.Name
		o.indsQs = append(o.indsQs, indsQ{indsBase + "&table=" + url.QueryEscape(table),
			count(func(dep, ref string) bool { return tableOf(dep) == table || tableOf(ref) == table })})
	}

	// Verify only pairs the batch run tested: its candidates, satisfied
	// ones first, then a sample of the refuted ones.
	cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{})
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	refuted := 0
	for _, c := range cands {
		h := holds[c.Dep.Ref.String()+" ⊆ "+c.Ref.Ref.String()]
		if !h {
			if refuted >= 200 {
				continue
			}
			refuted++
		}
		o.verifies = append(o.verifies, pairQ{
			url: "/v1/verify?dataset=" + datasetName + "&dep=" + url.QueryEscape(c.Dep.Ref.String()) +
				"&ref=" + url.QueryEscape(c.Ref.Ref.String()),
			dep: c.Dep, ref: c.Ref, holds: h,
		})
	}
	if len(o.verifies) == 0 || len(o.members) == 0 {
		return nil, errors.New("serve oracle: no questions to ask")
	}
	return o, nil
}

// columnValues returns an attribute's sorted distinct canonical values
// and, for each, the text a client would send for it.
func columnValues(rel *relstore.Database, a *ind.Attribute) (set, shown []string, err error) {
	seen := make(map[string]string)
	_, err = rel.Table(a.Ref.Table).ScanColumn(a.Ref.Column, func(v value.Value) {
		if !v.IsNull() {
			seen[v.Canonical()] = v.String()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for c := range seen {
		set = append(set, c)
	}
	sort.Strings(set)
	for _, c := range set {
		shown = append(shown, seen[c])
	}
	return set, shown, nil
}

// absentValue returns a value of the attribute's kind that the
// generators never produce.
func absentValue(kind value.Kind, rng *rand.Rand) string {
	switch kind {
	case value.Int, value.Float:
		return strconv.Itoa(900000000 + rng.Intn(100000000))
	default:
		return "zz-absent-" + strconv.FormatInt(rng.Int63(), 36)
	}
}

func contains(sorted []string, v string) bool {
	i := sort.SearchStrings(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

func subset(dep, ref []string) bool {
	for _, v := range dep {
		if !contains(ref, v) {
			return false
		}
	}
	return true
}

func splitIND(s string) (dep, ref string) {
	dep, ref, _ = strings.Cut(s, " ⊆ ")
	return dep, ref
}

func tableOf(attr string) string {
	table, _, _ := strings.Cut(attr, ".")
	return table
}

// serveSetup generates the dataset, exports it in block format with
// sketches, saves the result set and stages a server over it — what an
// operator does before indserved can answer.
func serveSetup(cfg config, i int) (dir string, res *spider.Result, srv *serve.Server, err error) {
	db := spider.GenerateUniProt(spider.DatasetConfig{Seed: cfg.seed, Scale: serveScale})
	dir = workDir(cfg, "export", i)
	res, err = spider.FindINDs(db, spider.Options{
		Algorithm: spider.SpiderMerge, SketchPrefilter: true, Format: spider.FormatBlock, WorkDir: dir,
	})
	if err != nil {
		return dir, nil, nil, err
	}
	if err := res.SaveResultSet(filepath.Join(dir, serve.DefaultResultsName)); err != nil {
		return dir, nil, nil, err
	}
	srv, err = serve.New(serve.Config{Specs: []serve.DatasetSpec{{Name: datasetName, Dir: dir}}})
	return dir, res, srv, err
}

// clientStats is one client's record of the closed loop.
type clientStats struct {
	lat                      [numOps]samples
	all                      samples
	attempted                int
	failures                 []string
	failed                   int
	bloom, cursor, falseHits int
	members                  int
	hits, misses, evictions  int64
	lastGeneration           int
	// perSecond counts the requests completed in each whole second of
	// the loop; peaks holds the peak RSS of each reload cycle.
	perSecond []int
	peaks     []float64
}

func (c *clientStats) fail(format string, args ...interface{}) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// loadClient is one closed-loop client: it sends its next request only
// after the previous response has been read in full.
type loadClient struct {
	id     int
	base   string
	http   *http.Client
	o      *serveOracle
	rng    *rand.Rand
	zipf   *rand.Zipf
	st     clientStats
	tr     *tracer
	parent int
	start  time.Time
}

func newLoadClient(id int, base string, hc *http.Client, o *serveOracle, seed int64) *loadClient {
	rng := rand.New(rand.NewSource(seed*31 + int64(id)))
	return &loadClient{
		id: id, base: base, http: hc, o: o, rng: rng,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(o.members)-1)),
	}
}

// do sends one request and reads the whole response, returning its
// status, body and client-observed latency.
func (c *loadClient) do(method, path string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t0), err
}

// run drives the loop until deadline.
func (c *loadClient) run(deadline time.Time) {
	for n := 1; time.Now().Before(deadline); n++ {
		if c.id == 0 && n%reloadEvery == 0 {
			c.scrape()
			c.cycleRSS()
			c.op(opReload)
			continue
		}
		r := c.rng.Float64()
		op := opMember
		for op < opVerify && r >= mixShares[op] {
			op++
		}
		c.op(op)
	}
}

// op sends one request of the given kind and checks its answer.
func (c *loadClient) op(op int) {
	var (
		method = http.MethodGet
		path   string
		mq     memberQ
		pq     pairQ
		iq     indsQ
	)
	switch op {
	case opMember:
		mq = c.o.members[c.zipf.Uint64()]
		path = mq.url
	case opContainment:
		pq = c.o.pairs[c.rng.Intn(len(c.o.pairs))]
		path = pq.url
	case opINDs:
		iq = c.o.indsQs[c.rng.Intn(len(c.o.indsQs))]
		path = iq.url
	case opVerify:
		pq = c.o.verifies[c.rng.Intn(len(c.o.verifies))]
		path = pq.url
	case opReload:
		method, path = http.MethodPost, "/v1/reload"
	}
	start := time.Now()
	status, body, lat, err := c.do(method, path)
	if c.tr != nil {
		c.tr.record("serve."+opNames[op], c.parent, start, start.Add(lat))
	}
	c.st.attempted++
	sec := int(time.Since(c.start) / time.Second)
	for len(c.st.perSecond) <= sec {
		c.st.perSecond = append(c.st.perSecond, 0)
	}
	c.st.perSecond[sec]++
	c.st.lat[op].add(lat)
	c.st.all.add(lat)
	switch {
	case err != nil:
		c.st.fail("%s %s: %v", method, path, err)
		return
	case status != http.StatusOK:
		c.st.fail("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(body))
		return
	}
	if msg := c.check(op, body, mq, pq, iq); msg != "" {
		c.st.fail("%s %s: %s", method, path, msg)
	}
}

// check compares one response with the oracle's answer.
func (c *loadClient) check(op int, body []byte, mq memberQ, pq pairQ, iq indsQ) string {
	switch op {
	case opMember:
		var r serve.MemberResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		c.st.members++
		switch r.Source {
		case "bloom":
			c.st.bloom++
		case "cursor":
			c.st.cursor++
			if !r.Member {
				c.st.falseHits++
			}
		}
		if r.Member != mq.want || r.Canonical != mq.canonical {
			return fmt.Sprintf("member=%v canonical=%q, want %v %q", r.Member, r.Canonical, mq.want, mq.canonical)
		}
	case opContainment:
		var r serve.ContainmentResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if r.Dep != pq.dep.Ref.String() || r.Ref != pq.ref.Ref.String() || r.Estimate < 0 || r.Estimate > 1 {
			return fmt.Sprintf("malformed answer %+v", r)
		}
		// A bloom filter has no false negatives: a holding IND can never
		// show a definite miss.
		if pq.holds && (r.DefiniteMisses > 0 || r.RefutesExact) {
			return fmt.Sprintf("refutes an IND that holds (%d definite misses)", r.DefiniteMisses)
		}
	case opINDs:
		var r serve.INDsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if r.Total != iq.total {
			return fmt.Sprintf("total %d, want %d", r.Total, iq.total)
		}
	case opVerify:
		var r serve.VerifyResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if !r.MatchesDiscovery || r.Satisfied != pq.holds {
			return fmt.Sprintf("satisfied=%v matches_discovery=%v, want satisfied=%v", r.Satisfied, r.MatchesDiscovery, pq.holds)
		}
	case opReload:
		var r serve.ReloadResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if r.Generation <= c.st.lastGeneration {
			return fmt.Sprintf("generation %d after %d", r.Generation, c.st.lastGeneration)
		}
		c.st.lastGeneration = r.Generation
	}
	return ""
}

// cycleRSS closes one reload cycle's peak-RSS window and opens the next.
func (c *loadClient) cycleRSS() {
	rss, err := peakRSSMiB()
	if err == nil {
		err = resetPeakRSS()
	}
	if err != nil {
		c.st.fail("peak RSS: %v", err)
		return
	}
	c.st.peaks = append(c.st.peaks, rss)
}

// scrape adds the current generation's response-cache counters, which
// die with it at the next reload.
func (c *loadClient) scrape() {
	m, err := c.metrics()
	if err != nil {
		c.st.fail("GET /metrics: %v", err)
		return
	}
	c.st.hits += m.Cache.Hits
	c.st.misses += m.Cache.Misses
	c.st.evictions += m.Cache.Evictions
}

func (c *loadClient) metrics() (*serve.MetricsResponse, error) {
	status, body, _, err := c.do(http.MethodGet, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d", status)
	}
	var m serve.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// closedLoop runs serveClients clients against base until the duration
// has passed and returns their merged record.
func closedLoop(base string, hc *http.Client, o *serveOracle, seed int64, d time.Duration, tr *tracer, generation int) *clientStats {
	start := time.Now()
	deadline := start.Add(d)
	clients := make([]*loadClient, serveClients)
	var wg sync.WaitGroup
	for i := range clients {
		c := newLoadClient(i, base, hc, o, seed)
		c.st.lastGeneration = generation
		c.start = start
		if tr != nil {
			c.tr = tr
			c.parent = tr.begin(fmt.Sprintf("client%d", i), -1)
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(deadline)
		}()
	}
	wg.Wait()
	// Only whole seconds count; the last one is cut by the deadline.
	total := &clientStats{perSecond: make([]int, int(d/time.Second))}
	for _, c := range clients {
		if tr != nil {
			tr.end(c.parent)
		}
		total.absorb(&c.st)
		for i := range total.perSecond {
			if i < len(c.st.perSecond) {
				total.perSecond[i] += c.st.perSecond[i]
			}
		}
	}
	return total
}

// runServeMixed runs indserved in-process over a UniProt export and
// drives it with the closed-loop mix.
func runServeMixed(cfg config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	if err := initPoller(cfg.scratch); err != nil {
		return nil, err
	}

	// Set-up, repeated; the last one is served.
	var (
		setup samples
		dir   string
		res   *spider.Result
		srv   *serve.Server
	)
	for i := 0; i < serveSetups; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		dir, res, srv, err = serveSetup(cfg, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup.add(time.Since(t0))
	}

	db := spider.GenerateUniProt(spider.DatasetConfig{Seed: cfg.seed, Scale: serveScale})
	oracleRes, err := spider.FindINDs(db, spider.Options{Algorithm: spider.InMemory})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	want := unaryVerdicts(oracleRes.INDs)
	o, err := buildServeOracle(cfg.seed, want)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if diff := want.diff(unaryVerdicts(res.INDs)); diff != "" {
		out.fail("served result set differs from the oracle: %s", diff)
	}
	exportBytes, stray, err := dirCensus(dir)
	if err != nil {
		return nil, err
	}
	for _, p := range stray {
		if filepath.Base(p) != serve.DefaultResultsName {
			out.fail("stray file in the export: %s", p)
			continue
		}
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		exportBytes -= info.Size()
	}

	tmpBefore, err := tmpEntries()
	if err != nil {
		return nil, err
	}
	fdBefore, err := openFDs()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	hc := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()

	var mem memDelta
	mem.begin()
	var stats *clientStats
	var tr *tracer
	var untracedP50 float64
	if cfg.trace {
		// The first half runs untraced, the second records one span per
		// request; their medians give the tracing overhead.
		half := cfg.duration / 2
		stats = closedLoop(base, hc, o, cfg.seed, half, nil, 1)
		untracedP50 = stats.all.pct(50, time.Millisecond)
		tr = newTracer()
		t0 := time.Now()
		second := closedLoop(base, hc, o, cfg.seed+1, half, tr, stats.lastGeneration)
		wall := time.Since(t0)
		var sum time.Duration
		for _, s := range tr.snapshot() {
			if s.Parent >= 0 {
				sum += s.dur()
			}
		}
		out.metrics["trace.coverage"] = float64(sum) / float64(wall*serveClients)
		out.metrics["trace.overhead"] = second.all.pct(50, time.Millisecond)/untracedP50 - 1
		stats.absorb(second)
		stats.perSecond = append(stats.perSecond, second.perSecond...)
	} else {
		stats = closedLoop(base, hc, o, cfg.seed, cfg.duration, nil, 1)
	}
	mem.end()
	// The cycle the deadline cut short, so that a short run has one too.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	stats.peaks = append(stats.peaks, rss)

	// Final scrape: the last generation's cache and lifetime handler
	// timings.
	final, err := (&loadClient{base: base, http: hc}).metrics()
	if err != nil {
		out.fail("GET /metrics: %v", err)
		final = &serve.MetricsResponse{}
	}
	stats.hits += final.Cache.Hits
	stats.misses += final.Cache.Misses
	stats.evictions += final.Cache.Evictions

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = srv.Shutdown(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, fmt.Errorf("serve: %w", err)
	}
	transport.CloseIdleConnections()

	leakedFDs, err := settledFDs(fdBefore)
	if err != nil {
		return nil, err
	}
	tmpAfter, err := tmpEntries()
	if err != nil {
		return nil, err
	}
	strayTmp := newEntries(tmpBefore, tmpAfter)
	if len(strayTmp) > 0 {
		out.fail("%d entries left in the temporary directory, e.g. %s", len(strayTmp), strayTmp[0])
	}
	if leakedFDs > 0 {
		out.fail("%d file descriptors left open", leakedFDs)
	}
	out.attempted += stats.attempted
	out.failed += stats.failed
	out.problems = append(out.problems, stats.failures...)

	m := out.metrics
	m["setup_s"] = setup.pct(50, time.Second)
	m["latency_ms_p50"] = stats.all.pct(50, time.Millisecond)
	m["latency_ms_p90"] = stats.all.pct(90, time.Millisecond)
	// Completed requests per second: the median whole second, so that a
	// burst from a neighbour on the machine moves one window, not the
	// figure.
	var rps []float64
	for _, n := range stats.perSecond {
		rps = append(rps, float64(n))
	}
	m["throughput_per_s"] = median(sortedCopy(rps))
	if len(rps) == 0 {
		m["throughput_per_s"] = float64(len(stats.all.d)) / cfg.duration.Seconds()
	}
	// The median reload cycle's peak: every cycle stages a generation
	// while the previous one serves, so the cycles repeat one shape.
	m["peak_rss_mb"] = median(sortedCopy(stats.peaks))
	m["space_amp"] = float64(exportBytes) / float64(o.canonBytes)
	m["ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	if !cfg.trace {
		return out, nil
	}

	m["serve_rps"] = m["throughput_per_s"]
	m["fail_ratio"] = float64(out.failed) / float64(out.attempted)
	m["samples"] = float64(len(stats.all.d))
	putTail(m, &stats.all)
	us := time.Microsecond
	m["member_us_p50"] = stats.lat[opMember].pct(50, us)
	m["member_us_p90"] = stats.lat[opMember].pct(90, us)
	m["containment_us_p50"] = stats.lat[opContainment].pct(50, us)
	m["inds_us_p50"] = stats.lat[opINDs].pct(50, us)
	m["verify_us_p50"] = stats.lat[opVerify].pct(50, us)
	m["verify_us_p90"] = stats.lat[opVerify].pct(90, us)
	m["reload_ms_p50"] = stats.lat[opReload].pct(50, time.Millisecond)
	m["serve.member_us_p99"] = stats.lat[opMember].pct(99, us)
	m["serve.verify_us_p99"] = stats.lat[opVerify].pct(99, us)
	m["serve.member_us_p999"] = stats.lat[opMember].pct(99.9, us)
	m["serve.cache_hit_ratio"] = ratio(float64(stats.hits), float64(stats.hits+stats.misses))
	m["serve.cache_evictions"] = float64(stats.evictions)
	m["serve.member_bloom_share"] = ratio(float64(stats.bloom), float64(stats.members))
	m["serve.member_cursor_share"] = ratio(float64(stats.cursor), float64(stats.members))
	m["serve.bloom_false_hit_ratio"] = ratio(float64(stats.falseHits), float64(stats.cursor))
	for op := 0; op < numOps; op++ {
		name := opNames[op]
		em := final.Endpoints[name]
		handler := float64(em.MeanNs) / 1e3
		m["serve."+name+"_handler_us_mean"] = handler
		// Mean minus mean: a handler mean set beside a client median
		// would read negative on the tail-heavy verify and reload.
		m["serve."+name+"_wire_us"] = stats.lat[op].mean(us) - handler
	}
	m["store.leaked_files"] = float64(len(strayTmp))
	m["store.leaked_fds"] = float64(leakedFDs)
	mem.put(m, len(stats.all.d))

	if err := serveLayers(m, tr, dir, o); err != nil {
		return nil, err
	}
	if err := tr.writeFile(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
		return nil, err
	}
	fillZero(m)
	return out, nil
}

// absorb folds b into a, all but the per-second counts, which the
// caller either sums (concurrent clients) or appends (consecutive loops).
func (a *clientStats) absorb(b *clientStats) {
	for op := range a.lat {
		a.lat[op].merge(&b.lat[op])
	}
	a.all.merge(&b.all)
	a.attempted += b.attempted
	a.failed += b.failed
	a.failures = append(a.failures, b.failures...)
	a.bloom += b.bloom
	a.cursor += b.cursor
	a.falseHits += b.falseHits
	a.members += b.members
	a.hits += b.hits
	a.misses += b.misses
	a.evictions += b.evictions
	a.peaks = append(a.peaks, b.peaks...)
	if b.lastGeneration > a.lastGeneration {
		a.lastGeneration = b.lastGeneration
	}
}

// serveLayers times the serving layers' entry points directly, after the
// load: staging a generation (serve.LoadState), opening a point cursor
// on the snapshot, probing sketch pairs, rebuilding the sketches, and
// opening and reading the exported value files.
func serveLayers(m map[string]float64, tr *tracer, dir string, o *serveOracle) error {
	specs := []serve.DatasetSpec{{Name: datasetName, Dir: dir}}
	var st *serve.State
	for i := 0; i < 5; i++ {
		sp := tr.begin("serve.stage", -1)
		s, err := serve.LoadState(specs, 100+i, serve.DefaultCacheSize)
		tr.end(sp)
		if err != nil {
			return err
		}
		st = s
	}
	m["serve.stage_ms"] = durationsOf(tr.snapshot(), "serve.stage").pct(50, time.Millisecond)
	d, ok := st.Dataset(datasetName)
	if !ok {
		return fmt.Errorf("staged state lacks dataset %s", datasetName)
	}

	var opens samples
	for _, q := range o.members {
		if !q.want {
			continue
		}
		a, ok := d.Attr(q.attr.Ref.String())
		if !ok {
			return fmt.Errorf("staged state lacks %s", q.attr.Ref)
		}
		t0 := time.Now()
		cur, err := d.Snap.OpenRange(a.StoreKey(), nil, valfile.Range{Lo: q.canonical, Hi: q.canonical + "\x00", HasHi: true})
		if err != nil {
			return err
		}
		_, _ = cur.Next()
		cur.Close()
		opens.add(time.Since(t0))
	}
	m["serve.snapshot_open_us_p50"] = opens.pct(50, time.Microsecond)

	var probes samples
	for _, p := range o.pairs {
		dep, _ := d.Attr(p.dep.Ref.String())
		ref, _ := d.Attr(p.ref.Ref.String())
		if dep == nil || ref == nil || dep.Sketch == nil || ref.Sketch == nil {
			return fmt.Errorf("staged state lacks sketches for %s, %s", p.dep.Ref, p.ref.Ref)
		}
		t0 := time.Now()
		_ = sketch.Probe(dep.Sketch, ref.Sketch)
		probes.add(time.Since(t0))
	}
	m["sketch.probe_us_p50"] = probes.pct(50, time.Microsecond)

	// Rebuild every sketch from its staged value set.
	var bytes int64
	for _, a := range d.Attrs {
		vals, err := readAll(d.Snap, a.StoreKey())
		if err != nil {
			return err
		}
		sp := tr.begin("sketch.build", -1)
		b := sketch.NewBuilder(sketch.Config{}, a.Distinct)
		for _, v := range vals {
			b.Add(v)
		}
		sk := b.Finish()
		tr.end(sp)
		bytes += sk.Bytes()
	}
	spans := tr.snapshot()
	m["sketch.build_ms"] = durationsOf(spans, "sketch.build").sum(time.Millisecond)
	m["sketch.bytes"] = float64(bytes)

	lt := &layerTotals{}
	fs := store.NewFS(dir, valfile.FormatBlock)
	sp := tr.begin("store.read_sweep", -1)
	err := readSweep(&tracedDataset{Dataset: fs, lt: lt}, d.Attrs, lt)
	tr.end(sp)
	if err != nil {
		return err
	}
	spans = tr.snapshot()
	m["store.open_us_p50"] = lt.opens.pct(50, time.Microsecond)
	m["store.read_ms"] = durationsOf(spans, "store.read_sweep").sum(time.Millisecond)
	m["store.bytes_read"] = float64(lt.bytesRead.Load())
	for mod, d := range selfTimes(spans) {
		m[mod+".self_ms"] = float64(d) / float64(time.Millisecond)
	}
	return nil
}

// readAll returns every value of key.
func readAll(ds store.Dataset, key string) ([]string, error) {
	cur, err := ds.Open(key, nil)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []string
	for {
		v, ok := cur.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out, cur.Err()
}
