package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/scenario"
)

// newTestServer starts a manager plus its HTTP front end and tears both down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(New(m))
	t.Cleanup(func() {
		m.Drain() // finishes every record log, releasing any followers
		ts.Close()
	})
	return m, ts
}

// blockWorkers installs the test hook that parks every claimed job until
// release is closed, reporting each claim on started.
func blockWorkers(m *Manager, started chan<- *Job, release <-chan struct{}) {
	m.mu.Lock()
	m.testJobStart = func(j *Job) {
		started <- j
		<-release
	}
	m.mu.Unlock()
}

func postJob(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, SubmitResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var sr SubmitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("parse submit response %s: %v", data, err)
		}
	}
	return resp, sr, data
}

func specBody(t *testing.T, seed int64) []byte {
	t.Helper()
	body, err := json.Marshal(JobRequest{Spec: &SpecRequest{
		Algorithm: "unison", Topology: "ring", N: 6,
		Daemon: "distributed-random", Fault: "random-all", Seed: seed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func awaitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", j.ID, j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRegistryEndpointMatchesDump(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := scenario.WriteRegistryJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("/v1/registry body diverged from scenario.WriteRegistryJSON:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

func TestVersionEndpointIsTheBaselineFingerprint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got campaign.Meta
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := campaign.Fingerprint(); got != want {
		t.Errorf("/v1/version = %+v, want the campaign fingerprint %+v", got, want)
	}
}

// TestRecordStreamByteIdentity is the acceptance check of the tentpole: for
// a fixed spec and seed, the served record stream must be byte-identical to
// the CAMPAIGN_<id>.jsonl file an offline sdrbench -campaign run writes.
func TestRecordStreamByteIdentity(t *testing.T) {
	spec := campaign.Spec{
		ID:         "svc-identity",
		Algorithms: []string{"unison"},
		Topologies: []string{"ring", "star"},
		Daemons:    []string{"distributed-random"},
		Sizes:      []int{6},
		Seed:       11,
		MinTrials:  3,
	}

	offline := filepath.Join(t.TempDir(), "CAMPAIGN_svc-identity.jsonl")
	if _, err := campaign.Run(spec, offline, campaign.Options{Parallel: 3}); err != nil {
		t.Fatalf("offline campaign run: %v", err)
	}
	want, err := os.ReadFile(offline)
	if err != nil {
		t.Fatal(err)
	}

	m, ts := newTestServer(t, Config{Workers: 1, Parallel: 2})
	body, err := json.Marshal(JobRequest{Campaign: &spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, sr, raw := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	job, ok := m.Get(sr.ID)
	if !ok {
		t.Fatalf("job %s not retained", sr.ID)
	}
	awaitState(t, job, StateDone)

	recResp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer recResp.Body.Close()
	got, err := io.ReadAll(recResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served stream diverged from the offline campaign file:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Resuming from a line offset serves exactly the remaining lines.
	wantLines := bytes.SplitAfter(want, []byte("\n"))
	fromResp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer fromResp.Body.Close()
	gotFrom, err := io.ReadAll(fromResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	wantFrom := bytes.Join(wantLines[2:], nil)
	if !bytes.Equal(gotFrom, wantFrom) {
		t.Errorf("?from=2 stream diverged:\ngot:\n%s\nwant:\n%s", gotFrom, wantFrom)
	}
}

func TestDedupConcurrentAndCached(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 4)
	release := make(chan struct{})
	blockWorkers(m, started, release)

	body := specBody(t, 1)
	resp1, sr1, raw := postJob(t, ts, body)
	if resp1.StatusCode != http.StatusAccepted || sr1.Deduped {
		t.Fatalf("first submit: %s deduped=%v: %s", resp1.Status, sr1.Deduped, raw)
	}
	job := <-started // the worker claimed it and is now parked

	// An identical submission while the job is in flight attaches to it.
	resp2, sr2, raw := postJob(t, ts, body)
	if resp2.StatusCode != http.StatusOK || !sr2.Deduped || sr2.ID != sr1.ID {
		t.Fatalf("in-flight duplicate: %s deduped=%v id=%s (want %s): %s",
			resp2.Status, sr2.Deduped, sr2.ID, sr1.ID, raw)
	}
	if s := m.Stats(); s.DedupHitsInFlight != 1 || s.JobsAccepted != 1 {
		t.Errorf("stats after in-flight duplicate: %+v", s)
	}

	close(release)
	awaitState(t, job, StateDone)

	// A duplicate of the completed job is served from the result cache.
	resp3, sr3, raw := postJob(t, ts, body)
	if resp3.StatusCode != http.StatusOK || !sr3.Deduped || sr3.ID != sr1.ID || sr3.State != StateDone {
		t.Fatalf("cached duplicate: %s deduped=%v id=%s state=%s: %s",
			resp3.Status, sr3.Deduped, sr3.ID, sr3.State, raw)
	}
	s := m.Stats()
	if s.DedupHits != 2 || s.DedupHitsCached != 1 || s.JobsDone != 1 || s.JobsAccepted != 1 {
		t.Errorf("final stats: %+v", s)
	}
	if st, _ := m.Get(sr1.ID); st.Status().DedupHits != 2 {
		t.Errorf("job dedup hit counter = %d, want 2", st.Status().DedupHits)
	}
}

func TestBackpressure429WhenQueueFull(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan *Job, 4)
	release := make(chan struct{})
	blockWorkers(m, started, release)

	respA, _, rawA := postJob(t, ts, specBody(t, 1))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %s: %s", respA.Status, rawA)
	}
	jobA := <-started // A occupies the worker, the queue is empty again

	respB, _, rawB := postJob(t, ts, specBody(t, 2))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %s: %s", respB.Status, rawB)
	}

	respC, _, rawC := postJob(t, ts, specBody(t, 3))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C with a full queue: %s (want 429): %s", respC.Status, rawC)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	if !strings.Contains(string(rawC), "queue full") {
		t.Errorf("429 body should name the full queue: %s", rawC)
	}

	close(release)
	awaitState(t, jobA, StateDone)
}

// TestDrainStopsAtRecordBoundary submits a long campaign, waits until its
// stream is flowing, then drains: the job must end interrupted with a clean
// JSONL prefix, and further submissions must be refused with 503.
func TestDrainStopsAtRecordBoundary(t *testing.T) {
	spec := campaign.Spec{
		ID:         "svc-drain",
		Algorithms: []string{"unison"},
		Topologies: []string{"ring"},
		Daemons:    []string{"distributed-random"},
		Sizes:      []int{8},
		Seed:       5,
		MinTrials:  50_000,
	}
	m, ts := newTestServer(t, Config{Workers: 1, Parallel: 2})
	body, err := json.Marshal(JobRequest{Campaign: &spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, sr, raw := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	job, _ := m.Get(sr.ID)
	deadline := time.Now().Add(30 * time.Second)
	for job.log.len() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("no records flowed before the deadline")
		}
		time.Sleep(time.Millisecond)
	}

	m.Drain()

	if st := job.State(); st != StateInterrupted {
		t.Fatalf("job state after drain = %q, want %q", st, StateInterrupted)
	}
	recResp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer recResp.Body.Close()
	stream, err := io.ReadAll(recResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if len(lines) < 5 || len(lines) >= 50_001 {
		t.Fatalf("drained stream has %d lines, want a proper prefix ≥ 5", len(lines))
	}
	for i, ln := range lines {
		if !json.Valid(ln) {
			t.Fatalf("line %d of the drained stream is not valid JSON: %s", i, ln)
		}
	}
	var header struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(lines[0], &header); err != nil || header.Type != "campaign" {
		t.Errorf("first line should be the campaign header, got %s", lines[0])
	}

	respPost, _, rawPost := postJob(t, ts, specBody(t, 9))
	if respPost.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %s (want 503): %s", respPost.Status, rawPost)
	}
	s := m.Stats()
	if !s.Draining || s.JobsInterrupted != 1 {
		t.Errorf("stats after drain: %+v", s)
	}
}

func TestCancelAndNotFound(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 4)
	release := make(chan struct{})
	blockWorkers(m, started, release)

	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL+"/v1/jobs/nope", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s unknown job: %s (want 404)", method, resp.Status)
		}
	}

	respA, srA, _ := postJob(t, ts, specBody(t, 1))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %s", respA.Status)
	}
	jobA := <-started
	respB, srB, _ := postJob(t, ts, specBody(t, 2))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %s", respB.Status)
	}

	// B is still queued; cancelling it must settle it without running.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+srB.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued B: %s", resp.Status)
	}
	jobB, _ := m.Get(srB.ID)
	if jobB.State() != StateInterrupted {
		t.Errorf("cancelled queued job state = %q, want interrupted", jobB.State())
	}

	close(release)
	awaitState(t, jobA, StateDone)
	awaitState(t, jobB, StateInterrupted)

	// Cancelling a finished job is a conflict.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+srA.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: %s (want 409)", resp.Status)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", "{"},
		{"no kind populated", "{}"},
		{"two kinds populated", `{"spec":{"algorithm":"unison","topology":"ring","n":6,"daemon":"synchronous","seed":1},"campaign":{"id":"x","algorithms":["unison"],"topologies":["ring"],"daemons":["synchronous"],"sizes":[6],"seed":1}}`},
		{"kind mismatch", `{"kind":"sweep","spec":{"algorithm":"unison","topology":"ring","n":6,"daemon":"synchronous","seed":1}}`},
		{"unknown algorithm", `{"spec":{"algorithm":"no-such-algo","topology":"ring","n":6,"daemon":"synchronous","seed":1}}`},
		{"unknown field", `{"spec":{"algorithm":"unison","topology":"ring","n":6,"daemon":"synchronous","seed":1},"bogus":true}`},
	}
	for _, tc := range cases {
		resp, _, raw := postJob(t, ts, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s (want 400): %s", tc.name, resp.Status, raw)
		}
	}
}

// TestResultCacheEviction pins the memory bound: once the LRU overflows, the
// oldest finished job disappears entirely — status, stream and dedup entry.
func TestResultCacheEviction(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ResultCache: 1})

	resp1, sr1, _ := postJob(t, ts, specBody(t, 1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %s", resp1.Status)
	}
	job1, _ := m.Get(sr1.ID)
	awaitState(t, job1, StateDone)

	resp2, sr2, _ := postJob(t, ts, specBody(t, 2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %s", resp2.Status)
	}
	job2, _ := m.Get(sr2.ID)
	awaitState(t, job2, StateDone)

	if _, ok := m.Get(sr1.ID); ok {
		t.Error("job 1 should have been evicted from the result cache")
	}
	statusResp, err := http.Get(ts.URL + "/v1/jobs/" + sr1.ID)
	if err != nil {
		t.Fatal(err)
	}
	statusResp.Body.Close()
	if statusResp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status: %s (want 404)", statusResp.Status)
	}

	// An evicted job no longer dedups: resubmitting runs it fresh.
	resp3, sr3, _ := postJob(t, ts, specBody(t, 1))
	if resp3.StatusCode != http.StatusAccepted || sr3.Deduped {
		t.Errorf("resubmit of evicted spec: %s deduped=%v (want a fresh 202)", resp3.Status, sr3.Deduped)
	}
	if s := m.Stats(); s.CachedJobs != 1 {
		t.Errorf("cached jobs = %d, want 1", s.CachedJobs)
	}
}

// TestSubmitBelowMinimumSizeRejected pins the fix for sizes a topology
// generator cannot build (a ring needs n ≥ 3, a star n ≥ 2): they used to be
// accepted with 202 and then panic the worker, killing the process. They
// must get a 400 in every job kind, and the service must keep serving.
func TestSubmitBelowMinimumSizeRejected(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, body := range []string{
		`{"spec":{"algorithm":"unison","topology":"ring","n":2,"daemon":"synchronous","seed":1}}`,
		`{"spec":{"algorithm":"unison","topology":"star","n":1,"daemon":"synchronous","seed":1}}`,
		`{"sweep":{"algorithms":["unison"],"topologies":["ring"],"daemons":["synchronous"],"sizes":[4,2],"seed":1}}`,
		`{"campaign":{"id":"tiny","algorithms":["unison"],"topologies":["star"],"daemons":["synchronous"],"sizes":[1],"seed":1}}`,
	} {
		resp, _, raw := postJob(t, ts, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s (want 400): %s", body, resp.Status, raw)
		}
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var s Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if statsResp.StatusCode != http.StatusOK || s.JobsAccepted != 0 {
		t.Errorf("stats after rejected submissions: %s %+v", statsResp.Status, s)
	}

	resp, sr, _ := postJob(t, ts, specBody(t, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid submit after rejections: %s", resp.Status)
	}
	job, _ := m.Get(sr.ID)
	awaitState(t, job, StateDone)
}

// TestStatsLatencyAndMemoRates checks that finished jobs feed the latency
// percentiles surfaced by /v1/stats, and that the memoization hit-rate
// average is gone from the payload with the engine's transition memo.
func TestStatsLatencyAndMemoRates(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, sr, _ := postJob(t, ts, specBody(t, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	job, _ := m.Get(sr.ID)
	awaitState(t, job, StateDone)

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	raw, err := io.ReadAll(statsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var s Stats
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if s.JobLatency.Count != 1 || s.JobLatency.MeanMS <= 0 {
		t.Errorf("job latency not recorded: %+v", s.JobLatency)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if v, ok := fields["memo_hit_rate_mean"]; ok {
		t.Errorf("/v1/stats still reports memo_hit_rate_mean = %s", v)
	}
}

// TestDeriveIDIsStable pins the content-derived job naming: equal requests
// in different kinds map to distinct specs, equal requests to equal IDs.
func TestDeriveIDIsStable(t *testing.T) {
	req := JobRequest{Spec: &SpecRequest{Algorithm: "unison", Topology: "ring", N: 6, Daemon: "synchronous", Seed: 3}}
	a, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || specHash(a) != specHash(b) {
		t.Errorf("normalization is not stable: %q/%q", a.ID, b.ID)
	}
	other := JobRequest{Spec: &SpecRequest{Algorithm: "unison", Topology: "ring", N: 6, Daemon: "synchronous", Seed: 4}}
	c, err := other.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if specHash(a) == specHash(c) {
		t.Error("different seeds must hash differently")
	}
	if !strings.HasPrefix(a.ID, "job-") {
		t.Errorf("derived id %q should carry the job- prefix", a.ID)
	}
}

// TestRecordsFollowLiveStream verifies a follower connected before the job
// finishes still receives the complete stream.
func TestRecordsFollowLiveStream(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	blockWorkers(m, started, release)

	resp, sr, _ := postJob(t, ts, specBody(t, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	job := <-started

	type streamResult struct {
		data []byte
		err  error
	}
	results := make(chan streamResult, 1)
	go func() {
		r, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
		if err != nil {
			results <- streamResult{nil, err}
			return
		}
		defer r.Body.Close()
		data, err := io.ReadAll(r.Body)
		results <- streamResult{data, err}
	}()

	time.Sleep(10 * time.Millisecond) // let the follower attach before any output
	close(release)
	awaitState(t, job, StateDone)

	res := <-results
	if res.err != nil {
		t.Fatalf("follow stream: %v", res.err)
	}
	lines := bytes.Split(bytes.TrimSuffix(res.data, []byte("\n")), []byte("\n"))
	if want := job.log.len(); len(lines) != want {
		t.Errorf("follower saw %d lines, log holds %d", len(lines), want)
	}
	for i, ln := range lines {
		if !json.Valid(ln) {
			t.Fatalf("followed line %d is not valid JSON: %s", i, ln)
		}
	}
}
