package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdr/internal/campaign"
)

func scrapeMetrics(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	return string(data), resp.Header.Get("Content-Type")
}

// metricValue finds the value of the exposition line starting with the given
// series name (exact match up to the space), or fails.
func metricValue(t *testing.T, out, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s has unparseable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, out)
	return 0
}

// TestMetricsEndpoint is the /metrics e2e test: run a job through the full
// HTTP path, trigger a cached dedup hit, and require the exposition to be
// well-formed Prometheus text carrying the job, queue, dedup, record and
// request-latency series — the same numbers /v1/stats reports.
func TestMetricsEndpoint(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallel: 1})

	resp, sr, _ := postJob(t, ts, specBody(t, 42))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	job, _ := m.Get(sr.ID)
	awaitState(t, job, StateDone)
	if resp, sr2, _ := postJob(t, ts, specBody(t, 42)); resp.StatusCode != http.StatusOK || !sr2.Deduped {
		t.Fatalf("resubmit: status %d deduped %v, want cached dedup hit", resp.StatusCode, sr2.Deduped)
	}

	out, ctype := scrapeMetrics(t, ts.URL)
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ctype)
	}

	// Structural validity: every non-comment, non-blank line is
	// `series value` with a parseable float value, and every series has a
	// preceding # TYPE header for its family.
	typed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				typed[strings.Fields(rest)[0]] = true
			}
			continue
		}
		// Split at the last space: label values ("GET /v1/jobs") may
		// themselves contain spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name, value := line[:cut], line[cut+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("line %q: unparseable value: %v", line, err)
		}
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		trimmed := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if !typed[family] && !typed[trimmed] {
			t.Fatalf("series %q has no # TYPE header", name)
		}
	}

	if got := metricValue(t, out, "sdrd_jobs_accepted_total"); got != 1 {
		t.Errorf("jobs_accepted = %v, want 1", got)
	}
	if got := metricValue(t, out, `sdrd_jobs_finished_total{state="done"}`); got != 1 {
		t.Errorf("jobs_finished{done} = %v, want 1", got)
	}
	if got := metricValue(t, out, `sdrd_dedup_hits_total{kind="cached"}`); got != 1 {
		t.Errorf("dedup cached = %v, want 1", got)
	}
	if got := metricValue(t, out, "sdrd_queue_depth"); got != 0 {
		t.Errorf("queue_depth = %v, want 0", got)
	}
	if got := metricValue(t, out, "sdrd_queue_capacity"); got != 4 {
		t.Errorf("queue_capacity = %v, want 4", got)
	}
	if got := metricValue(t, out, "sdrd_job_duration_ms_count"); got != 1 {
		t.Errorf("job_duration count = %v, want 1", got)
	}
	if got := metricValue(t, out, "sdrd_campaign_records_total"); got < 2 {
		t.Errorf("records_total = %v, want >= 2 (header + at least one record)", got)
	}
	if got := metricValue(t, out, `sdrd_http_request_duration_seconds_count{route="POST /v1/jobs"}`); got != 2 {
		t.Errorf("request histogram count for POST /v1/jobs = %v, want 2", got)
	}
	if got := metricValue(t, out, `sdrd_http_requests_total{route="POST /v1/jobs",code="202"}`); got != 1 {
		t.Errorf("requests{202} = %v, want 1", got)
	}
	if got := metricValue(t, out, `sdrd_http_requests_total{route="POST /v1/jobs",code="200"}`); got != 1 {
		t.Errorf("requests{200} = %v, want 1", got)
	}

	// One source of truth: /v1/stats must agree with the scrape.
	s := m.Stats()
	if float64(s.JobsDone) != metricValue(t, out, `sdrd_jobs_finished_total{state="done"}`) {
		t.Errorf("stats JobsDone %d disagrees with /metrics", s.JobsDone)
	}
	if float64(s.DedupHitsCached) != metricValue(t, out, `sdrd_dedup_hits_total{kind="cached"}`) {
		t.Errorf("stats DedupHitsCached %d disagrees with /metrics", s.DedupHitsCached)
	}
}

// TestLatencySummaryOutlivesOldRing feeds more finished jobs through
// finalize than the replaced 512-sample ring could hold: the histogram-backed
// summary must keep counting (no wraparound) and still produce ordered,
// in-range percentile estimates.
func TestLatencySummaryOutlivesOldRing(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Drain()
	const n = 600 // > the old latencyWindow of 512
	for i := 1; i <= n; i++ {
		job := newJob(fmt.Sprintf("t%06d", i), fmt.Sprintf("hash%d", i), specForTest(t, int64(i)), time.Now(), nil)
		job.log.finish()
		m.finalize(job, StateDone, time.Duration(i)*time.Millisecond)
	}
	s := m.Stats()
	if s.JobLatency.Count != n {
		t.Fatalf("latency count = %d, want %d (histogram must not wrap)", s.JobLatency.Count, n)
	}
	l := s.JobLatency
	if l.MeanMS <= 0 || l.P50MS <= 0 {
		t.Fatalf("degenerate summary: %+v", l)
	}
	if !(l.P50MS <= l.P95MS && l.P95MS <= l.P99MS) {
		t.Errorf("percentiles out of order: %+v", l)
	}
	// Durations were 1..600ms uniform; the bucketed median estimate must
	// land near 300ms (within the covering power-of-two bucket).
	if l.P50MS < 128 || l.P50MS > 512 {
		t.Errorf("p50 = %vms, want within (128, 512] for uniform 1..600ms", l.P50MS)
	}
}

// syncBuffer makes a bytes.Buffer safe for the concurrent writes of worker
// and request goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestStructuredLifecycleLogs(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallel: 1, Logger: logger})

	_, sr, _ := postJob(t, ts, specBody(t, 99))
	job, _ := m.Get(sr.ID)
	awaitState(t, job, StateDone)
	postJob(t, ts, specBody(t, 99)) // dedup hit
	m.Drain()

	out := buf.String()
	for _, want := range []string{
		"job accepted", "job started", "job finished", "job dedup hit",
		"job=" + job.ID, "hash=" + shortHash(job.Hash),
		"msg=request", "path=/v1/jobs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("logs missing %q:\n%s", want, out)
		}
	}
}

func specForTest(t *testing.T, seed int64) campaign.Spec {
	t.Helper()
	req := JobRequest{Spec: &SpecRequest{
		Algorithm: "unison", Topology: "ring", N: 6,
		Daemon: "distributed-random", Fault: "random-all", Seed: seed,
	}}
	spec, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
