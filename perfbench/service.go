package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hbmsim/internal/resultcache"
	"hbmsim/internal/serve"
	"hbmsim/internal/tracing"
)

// service is an in-process job service with a result cache, behind its
// HTTP handler on a loopback listener: the hbmserved request path
// without the process boundary.
type service struct {
	svc    *serve.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// startService opens a service on a fresh state directory and an empty
// cache. Two workers, one sweep thread per job and two HTTP connections
// match two closed-loop clients on a 2-CPU host: no job ever waits for a
// worker, so latencies measure the job path, not a queue.
func startService(dir string, tr *tracing.Tracer) (*service, error) {
	cache, err := resultcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	svc, err := serve.Open(serve.Options{
		Dir:        filepath.Join(dir, "state"),
		Workers:    2,
		JobWorkers: 1,
		Cache:      cache,
		Tracer:     tr,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &service{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server, waits for it, and closes the service.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobOp is one request a client makes.
type jobOp struct {
	kind string // "sim" or "sweep" (cache misses), or "hit"
	spec serve.Spec
	// hitOf is the index, in the same client's records, of the job a
	// "hit" resubmits; -1 otherwise.
	hitOf int
}

// jobRec is one finished request.
type jobRec struct {
	op jobOp
	id uint64
	// submit is the POST round trip, done runs from before the POST to
	// the terminal event, get is the final GET of the result.
	submit, done, get time.Duration
	end               time.Time
	view              serve.View
	payload           []byte
	rejected          bool
	err               error
}

// do submits one job, waits on its event stream until it is terminal,
// and fetches its result: what an hbmserved caller does. Spans are
// recorded when ctx carries one.
func (s *service) do(ctx context.Context, op jobOp) jobRec {
	rec := jobRec{op: op}
	body, err := json.Marshal(op.spec)
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	_, sp := tracing.StartSpan(ctx, "bench.serve.submit")
	var v serve.View
	status, err := s.call(http.MethodPost, "/jobs", body, &v)
	rec.submit = time.Since(t0)
	sp.EndErr(err)
	if err == nil && status != http.StatusAccepted {
		rec.rejected = status == http.StatusTooManyRequests
		err = fmt.Errorf("POST /jobs: status %d", status)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	rec.id = v.ID

	_, sp = tracing.StartSpan(ctx, "bench.serve.wait")
	err = s.waitDone(rec.id)
	rec.done = time.Since(t0)
	rec.end = time.Now()
	sp.EndErr(err)
	if err != nil {
		rec.err = err
		return rec
	}

	_, sp = tracing.StartSpan(ctx, "bench.serve.get")
	t1 := time.Now()
	status, err = s.call(http.MethodGet, fmt.Sprintf("/jobs/%d", rec.id), nil, &rec.view)
	rec.get = time.Since(t1)
	sp.EndErr(err)
	switch {
	case err != nil:
		rec.err = err
	case status != http.StatusOK:
		rec.err = fmt.Errorf("GET /jobs/%d: status %d", rec.id, status)
	case rec.view.State != serve.StateDone:
		rec.err = fmt.Errorf("job %d ended %s: %s", rec.id, rec.view.State, rec.view.Error)
	default:
		rec.payload, rec.err = json.Marshal(rec.view.Result)
	}
	return rec
}

func (s *service) call(method, path string, body []byte, into any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// waitDone reads the job's server-sent events until one is terminal.
func (s *service) waitDone(id uint64) error {
	resp, err := s.client.Get(fmt.Sprintf("%s/jobs/%d/events", s.base, id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /jobs/%d/events: status %d", id, resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var v serve.View
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return err
			}
			if v.State.Terminal() {
				// Drain the rest so the connection is reused.
				_, err := io.Copy(io.Discard, rd)
				return err
			}
		}
		if err != nil {
			return fmt.Errorf("job %d: event stream ended before a terminal state: %w", id, err)
		}
	}
}

// runClients runs one closed loop per client concurrently, each issuing
// its next request only after the previous one finished, and returns
// every client's records. next returns a client's m-th request, or false
// when the client is done; a "hit" op's hitOf indexes the client's own
// earlier records, so a resubmit never races its original.
func (s *service) runClients(ctx context.Context, clients int, next func(c, m int, recs []jobRec) (jobOp, bool)) [][]jobRec {
	out := make([][]jobRec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for m := 0; ; m++ {
				op, ok := next(c, m, out[c])
				if !ok {
					return
				}
				out[c] = append(out[c], s.do(ctx, op))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// pointJob is a sim job spec computing the point: the job service builds
// the point's cores directly, which yields the same traces as a subset of
// the point's source workload.
func pointJob(p point) serve.Spec {
	wl := p.src
	wl.Cores = p.cores
	cfg := p.cfg
	return serve.Spec{Kind: serve.KindSim, Workload: &wl, Config: &cfg, CheckpointEveryTicks: checkpointEvery}
}

// serveScript runs a fixed client script against a fresh traced service
// and checks every answer as the timed window's are checked.
func serveScript(ctx context.Context, t *tracer, dir string, out io.Writer,
	next func(c, n int, recs []jobRec) (jobOp, bool)) ([][]jobRec, error) {
	svc, err := startService(dir, t.tr)
	if err != nil {
		return nil, err
	}
	recs := svc.runClients(ctx, mixClients, next)
	if err := svc.close(); err != nil {
		return nil, err
	}
	for _, rs := range recs {
		for _, r := range rs {
			if r.err != nil && !r.rejected { // serveMetrics counts rejections
				return nil, fmt.Errorf("traced job: %w", r.err)
			}
		}
	}
	failed, err := verifyJobs(recs, out)
	if err != nil {
		return nil, err
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d traced jobs failed their output checks: %w", failed, errMismatch)
	}
	return recs, nil
}

// serveMetrics renders the serve, resultcache and job-side sweep and snap
// metrics of a traced script. Queue wait, run and row times come from the
// service's own spans; each job's serve.job root span says its kind and
// whether the cache answered it.
func serveMetrics(m map[string]metric, t *tracer, recs [][]jobRec, ps *probeStats, dir string) error {
	var submit, get samples
	var jobs, hits, rejected, payload float64
	for _, rs := range recs {
		for _, r := range rs {
			jobs++
			submit.addDur(r.submit)
			get.addDur(r.get)
			payload += float64(len(r.payload))
			if r.view.CacheHit {
				hits++
			}
			if r.rejected {
				rejected++
			}
		}
	}
	spans, err := t.spans()
	if err != nil {
		return err
	}
	roots := map[tracing.TraceID]*tracing.SpanRecord{}
	for i := range spans {
		if spans[i].Name == "serve.job" {
			roots[spans[i].Trace] = &spans[i]
		}
	}
	hit := func(r *tracing.SpanRecord) bool {
		root := roots[r.Trace]
		return root != nil && root.AttrValue("cache_hit") == "true"
	}
	simMiss := func(r *tracing.SpanRecord) bool {
		root := roots[r.Trace]
		return root != nil && root.AttrValue("kind") == string(serve.KindSim) && !hit(r)
	}
	manifest, err := fileBytes(filepath.Join(dir, "state", "jobs.jsonl"))
	if err != nil {
		return err
	}
	entries, err := dirBytes(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	rows := named(spans, "sweep.row.run", nil)
	m["serve.submit_ms"] = metric{submit.median(), "ms"}
	m["serve.get_ms"] = metric{get.median(), "ms"}
	m["serve.queue_wait_ms"] = metric{named(spans, "serve.queue_wait", nil).median(), "ms"}
	m["serve.hit_queue_wait_ms"] = metric{named(spans, "serve.queue_wait", hit).median(), "ms"}
	m["serve.run_ms"] = metric{named(spans, "serve.run", simMiss).median(), "ms"}
	m["serve.payload_bytes"] = metric{payload, "bytes"}
	m["serve.manifest_bytes"] = metric{float64(manifest), "bytes"}
	m["serve.rejected"] = metric{rejected, "count"}
	m["resultcache.hit_ratio"] = metric{hits / jobs, "ratio"}
	m["resultcache.entry_bytes"] = metric{float64(entries), "bytes"}
	m["sweep.rows"] = metric{float64(len(rows)), "count"}
	m["sweep.row_ms"] = metric{rows.median(), "ms"}
	m["snap.writes"] = metric{float64(ps.snapWrites) + float64(len(named(spans, "serve.checkpoint_write", nil))), "count"}
	return nil
}
