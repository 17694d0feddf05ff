package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/server"
)

// Service workload: closed-loop clients (one per CPU) submit small seeded
// spec jobs; a fixed share of submissions repeats one of the client's own
// recently completed jobs, which the result cache must answer.
const (
	serviceN           = 16
	serviceRepeatShare = 0.25
	// serviceRecent bounds the completed jobs a client may repeat; with one
	// client per CPU it keeps every repeat well inside serviceResultCache.
	serviceRecent      = 8
	serviceResultCache = 64
)

// service is an in-process sdrd on a loopback listener.
type service struct {
	m     *server.Manager
	hs    *http.Server
	base  string
	serve chan error
}

func startService(procs int) (*service, error) {
	m := server.NewManager(server.Config{
		Workers:     procs,
		Parallel:    1,
		QueueDepth:  procs,
		ResultCache: serviceResultCache,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Drain()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{m: m, hs: &http.Server{Handler: server.New(m)}, base: "http://" + ln.Addr().String(), serve: make(chan error, 1)}
	go func() { s.serve <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection, waits for Serve to return
// and drains the manager's workers.
func (s *service) stop() error {
	err := s.hs.Close()
	if serr := <-s.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.m.Drain()
	return err
}

// jobSpec is the generated content of one job.
type jobSpec struct {
	Algorithm string
	Seed      int64
}

func (j jobSpec) request() server.JobRequest {
	return server.JobRequest{Spec: &server.SpecRequest{
		Algorithm: j.Algorithm, Topology: "ring", N: serviceN,
		Daemon: "distributed-random", Fault: "random-all", Seed: j.Seed,
	}}
}

// jobTiming is what the benchmark keeps of one submission: offsets from the
// clients' epoch and flags. It holds no pointers, so tens of thousands of
// them neither grow the heap much nor cost the collector anything.
type jobTiming struct {
	post, ack, first, last time.Duration
	lines                  int32
	ok, deduped, rejected  bool
}

func (t jobTiming) ms(from, to time.Duration) float64 {
	return float64((to - from).Nanoseconds()) / 1e6
}

// freshJob is a completed fresh job and the digest of its record stream.
type freshJob struct {
	job    jobSpec
	digest uint64
}

// client is one closed-loop caller: it submits, drains the record stream to
// its last line, and only then submits again.
type client struct {
	// id numbers the client among its of peers; the two space the clients'
	// job seeds and span op ids.
	id, of int
	epoch  time.Time
	hc     *http.Client
	rng    *rand.Rand
	ops    int
	// seedBase and picked derive the seed of the client's next fresh job.
	seedBase, picked int64
	// fresh lists every completed fresh job for the offline check; recent
	// holds the last serviceRecent of them, the jobs a repeat may pick.
	fresh  []freshJob
	recent []freshJob
	// failed counts failed submissions; errs keeps the first few causes.
	failed int
	errs   []string
	// buf and hash are reused for every stream, so the client adds little
	// garbage to the process the service runs in.
	buf  []byte
	hash hash.Hash
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// next picks the client's next job: a repeat of a recent fresh job, or a
// fresh job with a new seed.
func (c *client) next() (job freshJob, repeat bool) {
	if len(c.recent) > 0 && c.rng.Float64() < serviceRepeatShare {
		return c.recent[c.rng.Intn(len(c.recent))], true
	}
	alg := "unison"
	if c.rng.Intn(2) == 1 {
		alg = "dominating-set"
	}
	c.picked++
	return freshJob{job: jobSpec{Algorithm: alg, Seed: c.seedBase + c.picked*int64(c.of) + int64(c.id)}}, false
}

// run submits one job, drains its stream and checks what a client can: the
// status, the dedup flag, and for a repeat the stream bytes. tr may be nil.
func (c *client) run(base string, tr *tracer) jobTiming {
	j, repeat := c.next()
	c.ops++
	op := c.ops*c.of + c.id
	root := tr.begin("bench.job", 0, op)
	defer tr.end(root)
	var t jobTiming
	digest, status, deduped, err := c.submit(base, j.job, &t, tr, root, op)
	t.rejected = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	t.deduped = deduped
	switch {
	case err != nil:
		c.fail("job %+v: %v", j.job, err)
	case repeat != deduped:
		c.fail("job %+v: repeat=%v but deduped=%v", j.job, repeat, deduped)
	case repeat && digest != j.digest:
		c.fail("job %+v: repeat stream differs from the first", j.job)
	default:
		t.ok = true
		if !repeat {
			j.digest = digest
			c.fresh = append(c.fresh, j)
			if len(c.recent) == serviceRecent {
				c.recent = c.recent[1:]
			}
			c.recent = append(c.recent, j)
		}
	}
	return t
}

// submit POSTs the job and reads its record stream to the end, filling t's
// timestamps. It returns the stream's digest, the POST status and the dedup
// flag.
func (c *client) submit(base string, job jobSpec, t *jobTiming, tr *tracer, root, op int) (digest uint64, status int, deduped bool, err error) {
	body, err := json.Marshal(job.request())
	if err != nil {
		return 0, 0, false, err
	}
	t.post = time.Since(c.epoch)
	sp := tr.begin("server.POST /v1/jobs", root, op)
	resp, err := c.hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		return 0, 0, false, err
	}
	var sub server.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	t.ack = time.Since(c.epoch)
	tr.end(sp)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return 0, resp.StatusCode, false, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if derr != nil {
		return 0, resp.StatusCode, false, fmt.Errorf("submit: %w", derr)
	}
	sp = tr.begin("server.GET /v1/jobs/{id}/records", root, op)
	defer tr.end(sp)
	rec, err := c.hc.Get(base + sub.RecordsURL)
	if err != nil {
		return 0, resp.StatusCode, sub.Deduped, err
	}
	defer rec.Body.Close()
	if rec.StatusCode != http.StatusOK {
		return 0, resp.StatusCode, sub.Deduped, fmt.Errorf("records: HTTP %d", rec.StatusCode)
	}
	if c.hash == nil {
		c.buf, c.hash = make([]byte, 4096), sha256.New()
	}
	c.hash.Reset()
	lines := 0
	for {
		n, err := rec.Body.Read(c.buf)
		if n > 0 {
			if t.first == 0 {
				t.first = time.Since(c.epoch)
			}
			c.hash.Write(c.buf[:n])
			lines += bytes.Count(c.buf[:n], []byte{'\n'})
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, resp.StatusCode, sub.Deduped, fmt.Errorf("records: %w", err)
		}
	}
	t.last = time.Since(c.epoch)
	t.lines = int32(lines)
	if lines < 2 {
		return 0, resp.StatusCode, sub.Deduped, fmt.Errorf("records: stream ended after %d lines", lines)
	}
	return binary.BigEndian.Uint64(c.hash.Sum(c.buf[:0])), resp.StatusCode, sub.Deduped, nil
}

// serveWindow runs the clients against svc for d and returns the timing of
// every submission. With a tracer it also samples the queue depth.
func serveWindow(svc *service, clients []*client, d time.Duration, tr *tracer) ([]jobTiming, int) {
	deadline := time.Now().Add(d)
	timings := make([][]jobTiming, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				timings[i] = append(timings[i], c.run(svc.base, tr))
			}
		}()
	}
	maxDepth := 0
	if tr != nil {
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if q := svc.m.Stats().QueueDepth; q > maxDepth {
						maxDepth = q
					}
				}
			}
		}()
		wg.Wait()
		close(stop)
		<-sampled
	} else {
		wg.Wait()
	}
	var all []jobTiming
	for _, ts := range timings {
		all = append(all, ts...)
	}
	return all, maxDepth
}

// second is one whole second of a window: the jobs whose stream completed
// in it and their latency quantiles (each job timed from its own POST to
// its last record byte).
type second struct {
	jobs     int
	rate     float64 // jobs per second
	p50, p99 float64
}

// bySecond splits a window that began at begin and lasted d into whole
// seconds (one bucket for windows shorter than a second).
func bySecond(ts []jobTiming, begin, d time.Duration) []second {
	n := int(d / time.Second)
	width := time.Second
	if n == 0 {
		n, width = 1, d
	}
	lat := make([][]float64, n)
	for _, t := range ts {
		if b := int((t.last - begin) / width); t.ok && b >= 0 && b < n {
			lat[b] = append(lat[b], t.ms(t.post, t.last))
		}
	}
	secs := make([]second, n)
	for b, xs := range lat {
		secs[b] = second{jobs: len(xs), rate: float64(len(xs)) / width.Seconds(), p50: quantile(xs, 0.50), p99: quantile(xs, 0.99)}
	}
	return secs
}

func runService(cfg *config) (*outcome, error) {
	out := newOutcome()
	var svc *service
	setup, err := setupMedian(21, func() (err error) {
		svc, err = startService(cfg.procs)
		return err
	}, func() {
		// A set-up that fails to stop cleanly still frees its listener; the
		// measured service is the last one.
		_ = svc.stop()
	})
	if err != nil {
		return nil, err
	}
	out.params["clients"] = cfg.procs
	out.params["n"] = serviceN
	out.params["repeat_share"] = serviceRepeatShare
	out.params["workers"] = cfg.procs
	out.params["parallel"] = 1
	out.params["queue_depth"] = cfg.procs
	out.params["result_cache"] = serviceResultCache
	out.params["work_unit"] = "jobs"

	epoch := time.Now()
	clients := make([]*client, cfg.procs)
	for i := range clients {
		clients[i] = &client{
			id:       i,
			of:       len(clients),
			epoch:    epoch,
			hc:       &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			rng:      rand.New(rand.NewSource(cfg.seed*int64(len(clients)) + int64(i))),
			seedBase: cfg.seed << 32,
		}
	}
	defer func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
	}()

	// A traced run alternates untraced and traced quarters of the window,
	// so both halves see the same drift of the host's speed.
	var secs, tracedSecs []second
	var traced []jobTiming
	var tr *tracer
	maxDepth := 0
	parts := 1
	if cfg.trace {
		tr = newTracer()
		parts = 4
	}
	part := cfg.window / time.Duration(parts)
	for k := 0; k < parts; k++ {
		begin := time.Since(epoch)
		if k%2 == 0 {
			ts, _ := serveWindow(svc, clients, part, nil)
			secs = append(secs, bySecond(ts, begin, part)...)
			continue
		}
		ts, depth := serveWindow(svc, clients, part, tr)
		traced = append(traced, ts...)
		tracedSecs = append(tracedSecs, bySecond(ts, begin, part)...)
		maxDepth = max(maxDepth, depth)
	}
	out.metrics["runtime.gc_cpu_fraction"] = gcCPUFraction()
	var stats server.Stats
	if cfg.trace {
		stats, err = getStats(clients[0].hc, svc.base)
	}
	if serr := svc.stop(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	out.metrics["peak_rss_mb"] = peakRSSMB()

	rate, p50, p99, fewest := summarize(secs)
	out.metrics["setup_s"] = setup
	out.metrics["work_per_s"] = rate
	out.metrics["latency_p50_ms"] = p50
	out.metrics["latency_p99_ms"] = p99
	out.samples["latency_seconds"] = len(secs)
	out.samples["latency_ms_min_per_second"] = fewest
	checkService(cfg, out, clients)

	if cfg.trace {
		serviceLayers(out, traced, cfg.window/2, maxDepth, stats)
		tracedRate, _, _, _ := summarize(tracedSecs)
		if err := out.finishTrace(cfg, tr, rate, tracedRate); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// summarize returns, over the window's seconds, the upper quartile of the
// jobs completed per second and the lower quartile of each second's p50 and
// p99 latency, and the fewest jobs any second's quantiles rest on.
//
// On a small shared VM, interference from other guests comes in episodes of
// several seconds that slow every job in them; a closed loop of tiny jobs on
// every CPU feels them fully. The calmer quartile of seconds reports what
// the service does outside those episodes, while a tail the program causes
// itself, such as garbage collection, recurs every second and shows in full.
func summarize(secs []second) (rate, p50, p99 float64, fewest int) {
	var rates, p50s, p99s []float64
	fewest = -1
	for _, s := range secs {
		rates = append(rates, s.rate)
		if s.jobs > 0 {
			p50s = append(p50s, s.p50)
			p99s = append(p99s, s.p99)
		}
		if fewest < 0 || s.jobs < fewest {
			fewest = s.jobs
		}
	}
	return quantile(rates, 0.75), quantile(p50s, 0.25), quantile(p99s, 0.25), fewest
}

func getStats(hc *http.Client, base string) (server.Stats, error) {
	var st server.Stats
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// checkService accounts every submission and checks each distinct job's
// stream against an offline campaign.RunSink of its normalized spec.
// Repeats were checked against the first stream as they completed.
func checkService(cfg *config, out *outcome, clients []*client) {
	var jobs []freshJob
	for _, c := range clients {
		out.attempted += c.ops
		out.failed += c.failed
		for _, e := range c.errs {
			out.violate("%s", e)
		}
		jobs = append(jobs, c.fresh...)
	}
	if out.failed > 0 {
		out.violate("%d of %d submissions failed", out.failed, out.attempted)
	}
	// Offline references, computed on one worker per CPU.
	bad := make([]string, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < cfg.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(jobs); i += cfg.procs {
				want, err := offlineDigest(jobs[i].job)
				got := fmt.Sprintf("%016x", jobs[i].digest)
				if err != nil {
					bad[i] = err.Error()
				} else if cfg.check("service.stream", got) != want {
					bad[i] = fmt.Sprintf("job %+v: served stream %s, offline RunSink %s", jobs[i].job, got, want)
				}
			}
		}()
	}
	wg.Wait()
	for _, b := range bad {
		if b != "" {
			out.failed++
			out.violate("%s", b)
		}
	}
	out.params["distinct_jobs"] = len(jobs)
}

// hashSink hashes a campaign stream exactly as sinks render it.
type hashSink struct{ h io.Writer }

func (s hashSink) WriteLine(v any) error {
	line, err := campaign.MarshalLine(v)
	if err != nil {
		return err
	}
	_, err = s.h.Write(line)
	return err
}

func offlineDigest(j jobSpec) (string, error) {
	spec, err := j.request().Normalize()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if _, err := campaign.RunSink(spec, hashSink{h}, campaign.Options{Parallel: 1}); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", binary.BigEndian.Uint64(h.Sum(nil))), nil
}

// serviceLayers derives the server and campaign metrics of the traced
// windows.
func serviceLayers(out *outcome, ts []jobTiming, d time.Duration, maxDepth int, st server.Stats) {
	var submit, firstRec, stream []float64
	var deduped, rejected, lines float64
	for _, t := range ts {
		if t.deduped {
			deduped++
		}
		if t.rejected {
			rejected++
		}
		if !t.ok {
			continue
		}
		lines += float64(t.lines)
		submit = append(submit, t.ms(t.post, t.ack))
		firstRec = append(firstRec, t.ms(t.ack, t.first))
		stream = append(stream, t.ms(t.first, t.last))
	}
	out.metrics["server.submit_ms.p50"] = quantile(submit, 0.50)
	out.metrics["server.submit_ms.p99"] = quantile(submit, 0.99)
	out.metrics["server.first_record_ms.p50"] = median(firstRec)
	out.metrics["server.stream_ms.p50"] = median(stream)
	out.samples["server_ms"] = len(submit)
	if n := float64(len(ts)); n > 0 {
		out.metrics["server.dedup_ratio"] = deduped / n
		out.metrics["server.rejected_share"] = rejected / n
	}
	out.metrics["server.queue_depth_max"] = float64(maxDepth)
	out.metrics["server.job_run_ms.p50"] = st.JobLatency.P50MS
	out.metrics["campaign.records_per_s"] = lines / d.Seconds()
}
