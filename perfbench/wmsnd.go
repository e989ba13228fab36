package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"wmsn/internal/scenario"
	"wmsn/internal/service"
)

// daemon is an in-process wmsnd: service.New behind an http.Server on a
// loopback port, the way cmd/wmsnd serves it.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	served chan error
}

// startDaemon starts a daemon with the default service settings and returns
// once GET /healthz answers 200.
func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{svc: service.New(service.Config{}), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	d.srv = &http.Server{Handler: d.svc}
	go func() { d.served <- d.srv.Serve(ln) }()
	for i := 0; ; i++ {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 1000 {
			d.stop()
			return nil, fmt.Errorf("daemon never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server down, closes the service and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a timeout leaves connections to Close below
	_ = d.srv.Close()
	d.svc.Close()
	<-d.served
}

// stats reads the daemon's GET /stats.
func (d *daemon) stats(c *http.Client) (service.Stats, error) {
	var st service.Stats
	resp, err := c.Get(d.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// watchBacklog polls GET /stats every 20 ms until the returned function is
// called; that function stops the polling and returns the largest number of
// queued jobs seen.
func (d *daemon) watchBacklog() func() int64 {
	stop, done := make(chan struct{}), make(chan struct{})
	var most int64
	go func() {
		defer close(done)
		c := &http.Client{Transport: &http.Transport{}}
		defer c.CloseIdleConnections()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if st, err := d.stats(c); err == nil && st.Queued > most {
					most = st.Queued
				}
			}
		}
	}()
	return func() int64 {
		close(stop)
		<-done
		return most
	}
}

// jobOutcome is what the client saw of one submitted job. Times are
// offsets from the start of the open loop.
type jobOutcome struct {
	job                        int
	due, sent, header, result1 time.Duration
	done                       time.Duration
	bytes                      int
	digests                    []string // stream digest per run index
	err                        error
}

// openLoop sends bodies[jobs[k]] as POST /v1/runs?stream=1 at due[k] after
// start, whatever earlier jobs are doing, with at most maxInflight requests
// open. A job that cannot get a connection slot waits, and that wait counts
// in its latency, which runs from due to its done line.
func openLoop(client *http.Client, baseURL string, bodies [][]byte, due []time.Duration, jobs []int, maxInflight int, start time.Time) []jobOutcome {
	out := make([]jobOutcome, len(due))
	slots := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for k := range due {
		if d := due[k] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		o := &out[k]
		o.job, o.due, o.sent = jobs[k], due[k], time.Since(start)
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			defer func() { <-slots }()
			o.err = submit(client, baseURL, body, start, o)
		}(bodies[jobs[k]])
	}
	wg.Wait()
	return out
}

// submit posts one streamed job and reads its stream to the done line.
func submit(client *http.Client, baseURL string, body []byte, start time.Time, o *jobOutcome) error {
	resp, err := client.Post(baseURL+"/v1/runs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		o.bytes += len(sc.Bytes()) + 1
		var ln service.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return fmt.Errorf("stream line: %w", err)
		}
		switch ln.Type {
		case "job":
			o.header = time.Since(start)
		case "result":
			if o.result1 == 0 {
				o.result1 = time.Since(start)
			}
			if ln.Metrics == nil {
				return fmt.Errorf("run %d: result without metrics", ln.Run)
			}
			for len(o.digests) <= ln.Run {
				o.digests = append(o.digests, "")
			}
			o.digests[ln.Run] = streamDigest(*ln.Metrics, ln.FirstDeathS, ln.SensorsAlive)
		case "error":
			return fmt.Errorf("run %d: %s", ln.Run, ln.Error)
		case "done":
			o.done = time.Since(start)
			if ln.State != service.StateDone || ln.Errors != 0 || ln.Delivered != ln.Runs {
				return fmt.Errorf("job ended %s with %d/%d runs delivered", ln.State, ln.Delivered, ln.Runs)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a done line")
}

// latencyMS is a job's latency from its due time to its done line.
func (o *jobOutcome) latencyMS() float64 { return ms(o.done - o.due) }

// jobRef is the in-process replay of one pool job.
type jobRef struct {
	cfgs    []scenario.Config
	digests []string      // stream digest of each run
	first   time.Duration // until run 0's result was delivered
	wall    time.Duration
}

// replayJobs runs every pool job in-process through scenario.RunEach with
// the daemon's per-job worker bound, recording the stream digests and the
// job's in-process wall time.
func replayJobs(pool []service.RunRequest) ([]jobRef, error) {
	refs := make([]jobRef, len(pool))
	for j, req := range pool {
		ref := &refs[j]
		for _, sp := range req.Runs {
			ref.cfgs = append(ref.cfgs, jobConfig(sp))
		}
		ref.digests = make([]string, len(ref.cfgs))
		t0 := time.Now()
		err := scenario.RunEach(context.Background(), maxWorkersPerJob, ref.cfgs, func(i int, r scenario.Result, err error) {
			if i == 0 {
				ref.first = time.Since(t0)
			}
			if err == nil {
				ref.digests[i] = resultStreamDigest(r)
			}
		})
		ref.wall = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("job %d in-process: %w", j, err)
		}
	}
	return refs, nil
}

// maxWorkersPerJob is the daemon's default per-job parallelism
// (service.Limits.MaxWorkersPerJob).
const maxWorkersPerJob = 4

// wmsndRun is one pass of the open loop against a fresh daemon.
type wmsndRun struct {
	start    time.Time
	outcomes []jobOutcome
	backlog  int64
	stats    service.Stats
}

// driveDaemon starts a daemon, runs the open loop over the schedule while
// polling /stats for the backlog, and stops the daemon.
func driveDaemon(pool []service.RunRequest, due []time.Duration, jobs []int, maxInflight int) (*wmsndRun, error) {
	bodies := make([][]byte, len(pool))
	for j := range pool {
		b, err := json.Marshal(pool[j])
		if err != nil {
			return nil, err
		}
		bodies[j] = b
	}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer d.stop()
	tr := &http.Transport{MaxIdleConnsPerHost: maxInflight}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	run := &wmsndRun{}
	stopPoll := d.watchBacklog()
	run.start = time.Now()
	run.outcomes = openLoop(client, d.url, bodies, due, jobs, maxInflight, run.start)
	run.backlog = stopPoll()
	run.stats, err = d.stats(client)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return run, nil
}

// checkJobs counts failed jobs: transport or stream errors, and results
// whose digest differs from the same runs made in-process. It returns the
// jobs that passed.
func checkJobs(outs []jobOutcome, refs []jobRef, rep *report) []jobOutcome {
	var passed []jobOutcome
	for k, o := range outs {
		rep.attempted++
		if o.err != nil {
			rep.failOp("job %d (pool %d): %v", k, o.job, o.err)
			continue
		}
		ref := refs[o.job]
		if len(o.digests) != len(ref.digests) {
			rep.failOp("job %d: %d results, want %d", k, len(o.digests), len(ref.digests))
			continue
		}
		ok := true
		for i := range ref.digests {
			if o.digests[i] != ref.digests[i] {
				rep.failOp("job %d run %d: digest %s, in-process %s", k, i, o.digests[i], ref.digests[i])
				ok = false
				break
			}
		}
		if ok {
			passed = append(passed, o)
		}
	}
	return passed
}
