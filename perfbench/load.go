package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// setupRounds is how many times a run spawns a server and starts a
// session to measure set-up time; the last one carries the workload.
const setupRounds = 9

// e2eResult is what one end-to-end run measured.
type e2eResult struct {
	setupS     []float64
	accepted   int64   // every point the server accepted
	timed      int64   // accepted after the warm-up
	wallS      float64 // from the first timed push to the final result
	sessionS   float64 // from the first warm-up push to the final result
	cpuS       float64
	stealFrac  float64 // machine CPU time stolen by other guests
	rssMB      float64
	pushMs     []float64
	pollMs     []float64
	freshMs    []float64
	lateMs     []float64
	served     int // successful GET /stream/{id} polls, the cache's denominator
	final      *streamReply
	f1         float64
	attempted  int
	failed     int
	errs       []string
	partitions int
}

// note counts one operation and records its failure, if any.
func (r *e2eResult) note(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, err.Error())
		}
		return false
	}
	return true
}

// sendLog maps the server's points counter back to the due time of the
// newest point it covers: entries are appended in send order with the
// running point total.
type sendLog struct {
	mu    sync.Mutex
	total int64
	cum   []int64
	due   []time.Time
}

func (l *sendLog) add(n int64, due time.Time) {
	l.mu.Lock()
	l.total += n
	l.cum = append(l.cum, l.total)
	l.due = append(l.due, due)
	l.mu.Unlock()
}

// dueOf returns the due time of the points-th point sent.
func (l *sendLog) dueOf(points int64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.cum), func(i int) bool { return l.cum[i] >= points })
	if points <= 0 || i == len(l.cum) {
		return time.Time{}, false
	}
	return l.due[i], true
}

// newClient returns a client that holds at most one connection, so the
// benchmark's connection count is its client count.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// loadGen runs one workload against one live session.
type loadGen struct {
	w       workload
	in      *inputs
	base    string // http://host:port/stream/<id>
	log     sendLog
	mu      sync.Mutex // guards res's sample slices and counters below
	res     *e2eResult
	clients []*http.Client
}

func (d *loadGen) record(dst *[]float64, v float64, err error) {
	d.mu.Lock()
	if d.res.note(err) {
		*dst = append(*dst, v)
	}
	d.mu.Unlock()
}

// doPoll issues one live poll due at due, recording its latency, the
// freshness of the points it covers and how late it was sent.
func (d *loadGen) doPoll(c *http.Client, due time.Time) {
	t0 := time.Now()
	rep, err := poll(c, http.MethodGet, d.base)
	t1 := time.Now()
	d.record(&d.res.pollMs, ms(t1.Sub(t0)), err)
	if err != nil {
		return
	}
	d.mu.Lock()
	d.res.served++
	if !due.IsZero() {
		d.res.lateMs = append(d.res.lateMs, ms(t0.Sub(due)))
	}
	d.mu.Unlock()
	if pd, ok := d.log.dueOf(rep.Points); ok {
		d.mu.Lock()
		d.res.freshMs = append(d.res.freshMs, ms(t1.Sub(pd)))
		d.mu.Unlock()
	}
}

// pushBody sends one body whose points are due at due; latency is
// measured from due.
func (d *loadGen) pushBody(c *http.Client, url string, body []byte, due time.Time) {
	d.log.add(rowsPerPush, due)
	n, err := push(c, url, body)
	lat := ms(time.Since(due))
	if err == nil && n != rowsPerPush {
		err = fmt.Errorf("push accepted %d of %d rows", n, rowsPerPush)
	}
	d.mu.Lock()
	d.res.accepted += n
	d.mu.Unlock()
	d.record(&d.res.pushMs, lat, err)
}

// closedProducer pushes bodies back to back until the deadline.
// Producer 0 also polls every pollEvery, on the same connection.
func (d *loadGen) closedProducer(p int, start, deadline time.Time) {
	c := d.clients[p]
	url := d.base + "/push?partition=" + strconv.Itoa(p%d.w.partitions)
	nextPoll := start
	for i := d.w.warmupBodies + p; ; i += d.w.producers {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		if p == 0 && d.w.pollEvery > 0 && !now.Before(nextPoll) {
			d.doPoll(c, nextPoll)
			nextPoll = nextPoll.Add(d.w.pollEvery)
			continue
		}
		d.pushBody(c, url, d.in.bodies[i%len(d.in.bodies)], time.Now())
	}
}

// openProducer pushes body k at start + k*interval, whatever the
// server's state, until the deadline.
func (d *loadGen) openProducer(start, deadline time.Time) {
	c := d.clients[0]
	url := d.base + "/push?partition=0"
	interval := time.Duration(float64(rowsPerPush) / d.w.openRate * float64(time.Second))
	for k := 0; ; k++ {
		body := d.in.bodies[(d.w.warmupBodies+k)%len(d.in.bodies)]
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late := ms(time.Since(due))
		d.mu.Lock()
		d.res.lateMs = append(d.res.lateMs, late)
		d.mu.Unlock()
		d.pushBody(c, url, body, due)
	}
}

// poller polls back to back until the deadline.
func (d *loadGen) poller(start, deadline time.Time) {
	c := d.clients[1]
	for time.Now().Before(deadline) {
		d.doPoll(c, time.Time{})
	}
}

// warmUp pushes the preamble, if any, and the warm-up bodies, then
// waits until the server has counted every one of their points.
func (d *loadGen) warmUp(c *http.Client) error {
	url := d.base + "/push?partition=0"
	bodies := d.in.bodies[:d.w.warmupBodies]
	if d.in.preamble != nil {
		bodies = append([][]byte{d.in.preamble}, bodies...)
	}
	for _, b := range bodies {
		t := time.Now()
		n, err := push(c, url, b)
		d.log.add(n, t)
		d.res.accepted += n
		if !d.res.note(err) {
			return err
		}
	}
	for wait := time.Now().Add(60 * time.Second); time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
		rep, err := poll(c, http.MethodGet, d.base)
		if !d.res.note(err) {
			return err
		}
		d.res.served++
		if rep.Points == d.res.accepted {
			return nil
		}
	}
	return fmt.Errorf("warm-up points not counted within 60s")
}

// runE2E sets the server up setupRounds times, drives the workload for
// the given duration against the last session, ends the stream, waits
// for the final result and checks it.
func runE2E(bin string, w workload, in *inputs, seconds float64) (*e2eResult, error) {
	res := &e2eResult{partitions: w.partitions}
	setupClient := newClient()
	defer setupClient.CloseIdleConnections()
	var srv *server
	var id string
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		s, err := startServer(bin, setupClient)
		if err != nil {
			return nil, err
		}
		sid, err := s.startStream(setupClient, w)
		if err != nil {
			s.kill()
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			s.kill()
			continue
		}
		srv, id = s, sid
	}
	defer srv.kill()
	setupClient.CloseIdleConnections()

	d := &loadGen{w: w, in: in, base: srv.base + "/stream/" + id, res: res}
	for i := 0; i < 2; i++ {
		d.clients = append(d.clients, newClient())
	}
	defer func() {
		for _, c := range d.clients {
			c.CloseIdleConnections()
		}
	}()
	c := d.clients[0]
	session := time.Now()
	if err := d.warmUp(c); err != nil {
		res.note(err)
		return res, nil
	}
	pid := srv.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	steal0, total0, err := stealTicks()
	if err != nil {
		return nil, err
	}
	warmed := res.accepted
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	if w.openRate > 0 {
		wg.Add(2)
		go func() { defer wg.Done(); d.openProducer(start, deadline) }()
		go func() { defer wg.Done(); d.poller(start, deadline) }()
	} else {
		for p := 0; p < w.producers; p++ {
			wg.Add(1)
			go func(p int) { defer wg.Done(); d.closedProducer(p, start, deadline) }(p)
		}
	}
	wg.Wait()

	// End the stream and wait for the drained result: /stop cancels
	// rather than drains, so it only comes after done:true.
	_, err = push(c, d.base+"/push?eof=1", nil)
	res.note(err)
	var final *streamReply
	for wait := time.Now().Add(60 * time.Second); time.Now().Before(wait); {
		rep, err := poll(c, http.MethodGet, d.base)
		if !res.note(err) {
			break
		}
		res.served++
		if rep.Done {
			final = rep
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.timed = res.accepted - warmed
	res.wallS = time.Since(start).Seconds()
	res.sessionS = time.Since(session).Seconds()
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	res.cpuS = cpu1 - cpu0
	steal1, total1, err := stealTicks()
	if err != nil {
		return nil, err
	}
	res.stealFrac = (steal1 - steal0) / (total1 - total0)
	if res.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	stopped, err := poll(c, http.MethodPost, d.base+"/stop")
	res.note(err)
	if final == nil {
		res.note(fmt.Errorf("stream never reported done:true"))
		return res, nil
	}
	res.final = final
	res.checkAnswer(in, stopped)
	return res, nil
}

// checkAnswer gates the final result: every accepted point is counted,
// the stop report agrees with it, the session is healthy, and the
// explanations recover the planted anomaly.
func (r *e2eResult) checkAnswer(in *inputs, stopped *streamReply) {
	f := r.final
	r.note(failIf(f.Points != r.accepted, "final points %d != accepted %d", f.Points, r.accepted))
	if stopped != nil { // a failed stop is already counted
		r.note(failIf(stopped.Points != f.Points, "stop reported %d points, final poll %d", stopped.Points, f.Points))
	}
	r.note(failIf(f.Health.Status != "ok", "session health %q", f.Health.Status))
	r.f1 = answerF1(f, in)
	r.note(failIf(r.f1 < minF1, "answer F1 %.3f below gate %.2f", r.f1, minF1))
}

// minF1 is the answer gate: every workload plants an anomaly the final
// explanations must recover at least this well.
const minF1 = 0.9

func failIf(failed bool, format string, args ...any) error {
	if failed {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// answerF1 scores the values of the ground-truth column that the
// explanations name against the planted set.
func answerF1(f *streamReply, in *inputs) float64 {
	got := map[string]bool{}
	for _, e := range f.Explanations {
		for _, a := range e.Attributes {
			if a.Column == in.truthCol {
				got[a.Value] = true
			}
		}
	}
	tp := 0
	for v := range got {
		if in.truth[v] {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(len(got))
	rec := float64(tp) / float64(len(in.truth))
	return 2 * p * rec / (p + rec)
}
