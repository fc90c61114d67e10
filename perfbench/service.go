package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"wlcrc"
	"wlcrc/internal/jobs"
	"wlcrc/internal/server"
	"wlcrc/internal/store"
)

// jobShape is the replay one service job performs: 2000 gcc writes
// through the default schemes, serially. The service's traced run walks
// it, and its reference result is what every job must return.
var jobShape = replaySpec{
	name:     "service",
	schemes:  []string{"Baseline", "WLCRC-16"},
	requests: 2000,
}

// serviceSetups is how many times a run sets the service up; setup_s
// is their median.
const serviceSetups = 100

// serviceSeeds is the fixed set of job seeds the clients cycle
// through, derived from the benchmark seed.
func serviceSeeds(seed uint64) []uint64 {
	ks := make([]uint64, 8)
	for i := range ks {
		ks[i] = seed*uint64(len(ks)) + uint64(i)
	}
	return ks
}

// jobBody is the POST /v1/jobs body of a job with seed k.
func jobBody(k uint64) string {
	return fmt.Sprintf(`{"workload":"gcc","writes":%d,"workers":1,"seed":%d}`, jobShape.requests, k)
}

// directReplays computes, for every job seed, the per-scheme metrics
// JSON of a direct engine replay of the job's spec. Every job's results
// must equal these byte for byte.
func directReplays(ks []uint64) (map[uint64][][]byte, error) {
	out := make(map[uint64][][]byte, len(ks))
	for _, k := range ks {
		w, err := wlcrc.NewWorkload("gcc", 0, k)
		if err != nil {
			return nil, err
		}
		schemes, err := buildSchemes(jobShape.schemes)
		if err != nil {
			return nil, err
		}
		ms, err := wlcrc.Replay(w, jobShape.requests, wlcrc.ReplayOptions{Workers: 1, Seed: k}, schemes...)
		if err != nil {
			return nil, fmt.Errorf("direct replay seed %d: %w", k, err)
		}
		if err := checkDecodeErrors(ms); err != nil {
			return nil, err
		}
		if out[k], err = metricsJSON(ms); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timedStore times the manager's and server's PutJob calls into the
// JSONL store (traced run only).
type timedStore struct {
	*store.JSONL
	mu     sync.Mutex
	putJob samples
}

func (s *timedStore) PutJob(rec store.JobRecord) error {
	t0 := time.Now()
	err := s.JSONL.PutJob(rec)
	d := time.Since(t0)
	s.mu.Lock()
	s.putJob.addDur(d)
	s.mu.Unlock()
	return err
}

// instance is one running service: store, job manager and HTTP server
// on a loopback listener.
type instance struct {
	dir   string
	jsonl *store.JSONL
	timed *timedStore
	mgr   *jobs.Manager
	hs    *http.Server
	base  string
	serve chan error
}

// startInstance sets the service up the way cmd/pcmserver does and
// returns once /healthz answers 200, with the time that took.
func startInstance(dir string, hc *http.Client, timed bool) (*instance, time.Duration, error) {
	t0 := time.Now()
	jsonl, err := store.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{dir: dir, jsonl: jsonl, serve: make(chan error, 1)}
	var st store.Store = jsonl
	if timed {
		in.timed = &timedStore{JSONL: jsonl}
		st = in.timed
	}
	in.mgr = jobs.NewManager(jobs.Config{Pool: nproc(), Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.mgr.Shutdown()
		jsonl.Close()
		return nil, 0, err
	}
	in.base = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: server.New(in.mgr, st, nil)}
	go func() { in.serve <- in.hs.Serve(ln) }()
	for {
		resp, err := hc.Get(in.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			in.stop()
			return nil, 0, fmt.Errorf("service not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return in, time.Since(t0), nil
}

// stop shuts the server, the manager and the store down, waiting for
// each.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.mgr.Shutdown()
	if cerr := in.jsonl.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobSample is one job as a client saw it.
type jobSample struct {
	k        uint64
	submit   time.Duration // POST round trip
	latency  time.Duration // POST sent until the SSE done event arrived
	doneSeen time.Time
	status   jobs.Status // GET /v1/jobs/{id} after done
}

// doJob submits one job, follows its event stream to done and fetches
// its final status. ok is false for a refused submit (not 202); err is
// set when the exchange itself broke.
func doJob(hc *http.Client, base string, k uint64) (s jobSample, ok bool, err error) {
	s.k = k
	t0 := time.Now()
	resp, err := hc.Post(base+"/v1/jobs", "application/json", strings.NewReader(jobBody(k)))
	if err != nil {
		return s, false, err
	}
	var st jobs.Status
	derr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted {
		return s, false, nil
	}
	if derr != nil {
		return s, false, fmt.Errorf("submit response: %w", derr)
	}
	if err := waitDone(hc, base, st.ID); err != nil {
		return s, false, err
	}
	s.doneSeen = time.Now()
	s.latency = s.doneSeen.Sub(t0)
	resp, err = hc.Get(base + "/v1/jobs/" + st.ID)
	if err != nil {
		return s, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, false, fmt.Errorf("get job %s: status %d", st.ID, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s.status); err != nil {
		return s, false, fmt.Errorf("get job %s: %w", st.ID, err)
	}
	return s, true, nil
}

// waitDone follows a job's SSE stream until its done event.
func waitDone(hc *http.Client, base, id string) error {
	resp, err := hc.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadString('\n')
		if strings.TrimSpace(line) == "event: done" {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		if err != nil {
			return fmt.Errorf("events %s: stream ended without done: %w", id, err)
		}
	}
}

// checkJob checks one finished job against the direct replay of its
// spec. A job that did not end done counts as a failed operation; a
// done job with different results fails the benchmark.
func checkJob(s jobSample, refs map[uint64][][]byte) (failed bool, err error) {
	st := s.status
	if st.State != jobs.StateDone || st.Degraded || len(st.Results) != 1 {
		return true, nil
	}
	enc, err := metricsJSON(st.Results[0].Metrics)
	if err != nil {
		return false, err
	}
	if err := checkDecodeErrors(st.Results[0].Metrics); err != nil {
		return false, err
	}
	return false, checkSame(fmt.Sprintf("job %s (seed %d)", st.ID, s.k), enc, refs[s.k], jobShape.schemes)
}

// load is the outcome of a closed-loop load phase.
type load struct {
	samples   []jobSample
	attempted int
	failed    int
	start     time.Time
	elapsed   time.Duration
	allocs    uint64
}

// drive runs nproc closed-loop clients against the instance for the
// window: each submits a job, follows it to done, fetches it, checks
// it, and only then submits the next. Seeds cycle through ks. Each
// client first runs warm jobs that are checked but not counted.
func drive(in *instance, hc *http.Client, ks []uint64, refs map[uint64][][]byte, window time.Duration, warm int) (*load, error) {
	clients := nproc()
	type clientOut struct {
		samples           []jobSample
		attempted, failed int
		err               error
	}
	outs := make([]clientOut, clients)
	var startWG, wg sync.WaitGroup
	startWG.Add(clients)
	begin := make(chan time.Time)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			next := c
			step := func() (jobSample, bool) {
				k := ks[next%len(ks)]
				next += clients
				s, ok, err := doJob(hc, in.base, k)
				if err == nil && ok {
					var bad bool
					bad, err = checkJob(s, refs)
					ok = !bad
				}
				if out.err == nil {
					out.err = err
				}
				return s, ok && err == nil
			}
			for i := 0; i < warm; i++ {
				step()
			}
			startWG.Done()
			deadline := (<-begin).Add(window)
			for out.err == nil && time.Now().Before(deadline) {
				out.attempted++
				s, ok := step()
				if !ok {
					out.failed++
					continue
				}
				out.samples = append(out.samples, s)
			}
		}(c)
	}
	startWG.Wait()
	a0 := mallocs()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		begin <- t0
	}
	wg.Wait()
	ld := &load{start: t0, elapsed: time.Since(t0), allocs: mallocs() - a0}
	for _, o := range outs {
		if o.err != nil {
			return ld, o.err
		}
		ld.samples = append(ld.samples, o.samples...)
		ld.attempted += o.attempted
		ld.failed += o.failed
	}
	return ld, nil
}

// runService is the service workload: the job daemon's stack on a real
// loopback listener under nproc closed-loop clients.
func runService(cfg config) (*result, error) {
	res := newResult()
	ks := serviceSeeds(cfg.seed)
	shape := jobShape
	in, err := prepareReplay(shape, cfg, ks[0])
	if err != nil {
		return res, err
	}
	refs, err := directReplays(ks)
	if err != nil {
		return res, err
	}
	// The trace-file replay the walk uses must be the job's replay.
	if err := checkSame("service trace replay", in.refJSON, refs[ks[0]], shape.schemes); err != nil {
		return res, err
	}
	// The timeout only guards against a hung service; a job takes
	// milliseconds.
	hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4 * nproc()}}
	defer hc.CloseIdleConnections()

	window := cfg.seconds
	if cfg.traced {
		// A third of the window walks the job's replay; the rest drives
		// the service with the store timed.
		walk := cfg.seconds / 3
		if err := tracedReplay(in, cfg, res, walk); err != nil {
			return res, err
		}
		window -= walk
	}

	var setup samples
	var inst *instance
	for i := 0; i < serviceSetups; i++ {
		if inst != nil {
			if err := inst.stop(); err != nil {
				return res, err
			}
		}
		var d time.Duration
		inst, d, err = startInstance(filepath.Join(cfg.work, fmt.Sprintf("store-%d", i)), hc, cfg.traced)
		if err != nil {
			return res, err
		}
		setup.addDur(d)
	}
	ld, err := drive(inst, hc, ks, refs, window, 2)
	hc.CloseIdleConnections()
	if serr := inst.stop(); err == nil {
		err = serr
	}
	if ld != nil {
		res.Attempted, res.Failed = ld.attempted, ld.failed
	}
	if err != nil {
		return res, err
	}
	if len(ld.samples) == 0 {
		return res, fmt.Errorf("no job completed in %v", window)
	}
	if cfg.traced {
		return res, serviceLayers(res, inst, ld)
	}

	var lat samples
	perSecond := make([]float64, int(ld.elapsed/time.Second))
	for _, s := range ld.samples {
		lat.addDur(s.latency)
		if b := int(s.doneSeen.Sub(ld.start) / time.Second); b < len(perSecond) {
			perSecond[b]++
		}
	}
	jobsPerS := samples(perSecond).quantile(0.9)
	n := float64(len(ld.samples))
	jobWrites := float64(jobShape.requests * len(jobShape.schemes))
	writes := n * jobWrites
	rss, err := peakRSSMiB()
	if err != nil {
		return res, err
	}
	res.set("setup_s", "s", setup.median())
	res.set("writes_per_s", "1/s", jobsPerS*jobWrites)
	res.set("allocs_per_write", "count", float64(ld.allocs)/writes)
	res.set("peak_rss_mb", "MiB", rss)
	res.set("jobs_per_s", "1/s", jobsPerS)
	res.set("job_p50_ms", "ms", lat.median()*1e3)
	res.set("job_p99_ms", "ms", lat.quantile(0.99)*1e3)
	fmt.Fprintf(cfg.out, "service: %d clients, closed loop; %d jobs in %.1fs (%.1f jobs/s overall); latency p50/p99 over %d samples\n",
		nproc(), len(ld.samples), ld.elapsed.Seconds(), n/ld.elapsed.Seconds(), len(ld.samples))
	return res, nil
}

// serviceLayers reports the job, server and store layers from the
// traced load phase.
func serviceLayers(res *result, inst *instance, ld *load) error {
	var wait, run, submit, lag samples
	for _, s := range ld.samples {
		st := s.status
		wait.addDur(st.Started.Sub(st.Created))
		run.addDur(st.Finished.Sub(st.Started))
		submit.addDur(s.submit)
		lag.addDur(s.doneSeen.Sub(st.Finished))
	}
	var bytes int64
	entries, err := os.ReadDir(inst.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
	}
	var reopen samples
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := store.Open(inst.dir)
		if err != nil {
			return fmt.Errorf("reopen store: %w", err)
		}
		reopen.addDur(time.Since(t0))
		if len(st.Jobs()) < len(ld.samples) {
			st.Close()
			return checkFailed("reopened store holds %d jobs, %d completed", len(st.Jobs()), len(ld.samples))
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	stored := float64(len(inst.timed.putJob)) / 2 // a record at submit and one at the end
	res.set("jobs.queue_wait_ms_p50", "ms", wait.median()*1e3)
	res.set("jobs.run_ms_p50", "ms", run.median()*1e3)
	res.set("server.submit_ms_p50", "ms", submit.median()*1e3)
	res.set("server.done_lag_ms_p50", "ms", lag.median()*1e3)
	res.set("store.put_job_us_p50", "us", inst.timed.putJob.median()*1e6)
	res.set("store.bytes_per_job", "bytes", div(float64(bytes), stored))
	res.set("store.reopen_ms", "ms", reopen.median()*1e3)
	return nil
}

// setServiceZeros reports zeros for the service layers on the replay
// workloads, which do not run them.
func setServiceZeros(res *result) {
	for _, n := range []string{"jobs.queue_wait_ms_p50", "jobs.run_ms_p50", "server.submit_ms_p50",
		"server.done_lag_ms_p50", "store.reopen_ms"} {
		res.set(n, "ms", 0)
	}
	res.set("store.put_job_us_p50", "us", 0)
	res.set("store.bytes_per_job", "bytes", 0)
}
