package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// coldVerify is how many cold replies are re-run directly after the
// measured phase. Re-running every unique job would double the run
// time; every reply is still checked for status, flags and shape.
const coldVerify = 12

// serveLoad measures a serve workload against an in-process http.Server
// mounting serve.Scheduler.Handler() — what cmd/jetsimd mounts.
type serveLoad struct {
	spec *serveSpec
	gen  *traffic
	keys []serve.Job
	// keySum is the checksum a direct core.Run of each hot key produces.
	keySum []string
	// sent keeps the measured cold jobs with the checksum the service
	// replied, for the direct re-runs of finish.
	sent []sentJob
	// directTailMS is Execute wall − Result.Elapsed of the direct runs.
	directTailMS []float64
}

type sentJob struct {
	job serve.Job
	sum string
}

// direct runs a job without the service and returns its checksum.
func (l *serveLoad) direct(job serve.Job) (string, error) {
	res, wall, err := executeRun(nil, 0, job.Config())
	if err != nil {
		return "", err
	}
	l.directTailMS = append(l.directTailMS, ms(wall-res.Elapsed))
	return serve.MomentumChecksum(res.Momentum), nil
}

func (l *serveLoad) prepare() error {
	if !l.spec.hot {
		return nil
	}
	l.keys = hotKeys(l.spec)
	for _, k := range l.keys {
		sum, err := l.direct(k)
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", k.ID, err)
		}
		l.keySum = append(l.keySum, sum)
	}
	return nil
}

// client is one closed-loop user: its own connection, one request at a
// time.
type client struct {
	http *http.Client
	url  string
	tr   *tracer
}

func newClient(url string, tr *tracer) *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, url: url, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one job and returns the decoded reply with the latency a
// client observes: from encoding the job to the decoded JobResult.
func (c *client) post(job serve.Job) (serve.JobResult, time.Duration, error) {
	id := c.tr.begin("client.post", 0)
	defer c.tr.end(id)
	t0 := time.Now()
	body, err := json.Marshal(job)
	if err != nil {
		return serve.JobResult{}, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, c.url+"/run", bytes.NewReader(body))
	if err != nil {
		return serve.JobResult{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return serve.JobResult{}, 0, err
	}
	defer resp.Body.Close()
	var res serve.JobResult
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the error
		return res, 0, fmt.Errorf("HTTP %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return res, 0, fmt.Errorf("decoding reply: %w", err)
	}
	wall := time.Since(t0)
	_, _ = io.Copy(io.Discard, resp.Body) // drain the trailing newline so the connection is reused
	return res, wall, nil
}

// stats fetches the scheduler counters over HTTP, as an operator would.
func (c *client) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.http.Get(c.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: HTTP %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// check validates one reply against what the job must produce; wantSum
// may be empty when no direct run of the job exists yet.
func (l *serveLoad) check(job serve.Job, res serve.JobResult, wantCached bool, wantSum string) error {
	switch {
	case !res.OK:
		return fmt.Errorf("%s: ok=false: %s", job.ID, res.Error)
	case res.ID != job.ID:
		return fmt.Errorf("%s: reply carries id %q", job.ID, res.ID)
	case res.Cached != wantCached:
		return fmt.Errorf("%s: cached=%t, want %t", job.ID, res.Cached, wantCached)
	case res.Steps != l.spec.steps:
		return fmt.Errorf("%s: %d steps, want %d", job.ID, res.Steps, l.spec.steps)
	case len(res.MomentumSHA256) != 64:
		return fmt.Errorf("%s: malformed momentum_sha256 %q", job.ID, res.MomentumSHA256)
	case wantSum != "" && res.MomentumSHA256 != wantSum:
		return fmt.Errorf("%s: momentum_sha256 differs from a direct core.Run of the job", job.ID)
	}
	return nil
}

type request struct {
	job  serve.Job
	want string // expected checksum, "" if unknown
}

func (l *serveLoad) round(tr *tracer, rec *record) {
	sp := l.spec
	// Draw this round's traffic before anything is timed.
	perClient := make([][]request, width)
	for c := range perClient {
		if sp.hot {
			for i, k := range l.gen.hotOrder(sp, sp.perClient) {
				job := l.keys[k]
				job.ID = fmt.Sprintf("hot-c%d-%05d-key%d", c, i, k)
				perClient[c] = append(perClient[c], request{job, l.keySum[k]})
			}
		} else {
			for i := 0; i < sp.perClient; i++ {
				perClient[c] = append(perClient[c], request{job: l.gen.coldJob(sp)})
			}
		}
	}

	// Set-up: scheduler, listener, server, and the priming requests that
	// bring the service to the state the measured traffic assumes.
	root := tr.begin("setup", 0)
	t0 := time.Now()
	sched := serve.New(serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.end(root)
		rec.failOp("listen: %v", err)
		return
	}
	handler := sched.Handler()
	if tr != nil {
		handler = traced(tr, handler)
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	clients := make([]*client, width)
	for c := range clients {
		clients[c] = newClient(url, tr)
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			rec.failOp("server shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			rec.failOp("server: %v", err)
		}
		sched.Close()
	}()
	prime := []request{{job: warmJob(sp)}}
	if sp.hot {
		prime = nil
		for k, job := range l.keys {
			prime = append(prime, request{job, l.keySum[k]})
		}
	}
	for _, p := range prime {
		res, wall, err := clients[0].post(p.job)
		if err == nil {
			err = l.check(p.job, res, false, p.want)
		}
		if err != nil {
			rec.failOp("priming: %v", err)
			continue
		}
		rec.coldOverheadMS = append(rec.coldOverheadMS, ms(wall)-res.ElapsedMS)
	}
	rec.setupS = append(rec.setupS, time.Since(t0).Seconds())
	tr.end(root)
	runtime.GC()

	before, err := clients[0].stats()
	if err != nil {
		rec.failOp("stats: %v", err)
	}
	type outcome struct {
		res  serve.JobResult
		wall time.Duration
		err  error
	}
	results := make([][]outcome, width)
	var wg sync.WaitGroup
	t0 = time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]outcome, len(perClient[c]))
			for i, rq := range perClient[c] {
				out[i].res, out[i].wall, out[i].err = clients[c].post(rq.job)
			}
			results[c] = out
		}(c)
	}
	wg.Wait()
	rec.busy += time.Since(t0)
	after, err := clients[0].stats()
	if err != nil {
		rec.failOp("stats: %v", err)
	}

	// Everything below is checking, outside the timed batch.
	sent := 0
	for c, out := range results {
		for i, o := range out {
			rq := perClient[c][i]
			sent++
			rec.attempted++
			err := o.err
			if err == nil {
				err = l.check(rq.job, o.res, sp.hot, rq.want)
			}
			if err != nil {
				rec.fail("%v", err)
				continue
			}
			rec.ok++
			rec.jobMS = append(rec.jobMS, ms(o.wall))
			if sp.hot {
				rec.hitMS = append(rec.hitMS, ms(o.wall))
			} else {
				rec.coldOverheadMS = append(rec.coldOverheadMS, ms(o.wall)-o.res.ElapsedMS)
				l.sent = append(l.sent, sentJob{rq.job, o.res.MomentumSHA256})
			}
		}
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	wantHits, wantMisses := uint64(0), uint64(sent)
	if sp.hot {
		wantHits, wantMisses = uint64(sent), 0
	}
	if hits != wantHits || misses != wantMisses || after.Rejected != 0 || after.Failures != 0 {
		rec.failOp("/stats over the batch: hits %d (want %d), misses %d (want %d), rejected %d, failures %d",
			hits, wantHits, misses, wantMisses, after.Rejected, after.Failures)
	}
	rec.stats.CacheHits += hits
	rec.stats.CacheMisses += misses
	rec.stats.Rejected += after.Rejected
}

// finish re-runs an evenly spaced sample of the measured cold jobs
// directly and compares checksums with what the service replied.
func (l *serveLoad) finish(rec *record) {
	n := len(l.sent)
	if n == 0 {
		return
	}
	stride := max(n/coldVerify, 1)
	for i := 0; i < n; i += stride {
		s := l.sent[i]
		sum, err := l.direct(s.job)
		if err == nil && sum != s.sum {
			err = errors.New("momentum_sha256 differs from a direct core.Run of the job")
		}
		if err != nil {
			rec.ok-- // the reply had passed its own checks
			rec.fail("%s: %v", s.job.ID, err)
		}
	}
	l.sent = l.sent[:0]
}

func (l *serveLoad) layer(rec *record, m map[string]float64) {
	m["core.execute_tail_ms"] = median(l.directTailMS)
	m["serve.cold_overhead_ms"] = median(rec.coldOverheadMS)
	if len(rec.hitMS) > 0 {
		m["serve.http_us"] = 1e3*median(rec.hitMS) - m["serve.hit_us"] - m["serve.resultof_us"]
	}
	m["serve.hits"] = float64(rec.stats.CacheHits)
	m["serve.misses"] = float64(rec.stats.CacheMisses)
	m["serve.rejected"] = float64(rec.stats.Rejected)
}
