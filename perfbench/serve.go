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
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"innsearch"
	"innsearch/internal/loadgen"
	"innsearch/internal/server/wire"
	"innsearch/internal/telemetry"
)

// serveAnalysts is the number of analysts in the closed loop: each starts
// its next session when its last result returns.
const serveAnalysts = 2

// replaySample is how many sessions of the first round, taken in query
// order, are re-run in-process with the same decisions.
const replaySample = 3

// serveConfig is the in-process equivalent of the sessions innsearchd
// runs here: the request asks for ModeAuto, the daemon's flags supply two
// shards and the vafile index, and -workers defaults to 1.
var serveConfig = innsearch.Config{
	Mode:    innsearch.ModeAuto,
	Shards:  2,
	Index:   innsearch.IndexConfig{Name: "vafile"},
	Workers: 1,
}

// daemon is one innsearchd process started by the benchmark.
type daemon struct {
	cmd       *exec.Cmd
	base      string
	debugBase string
	trace     string
	log       string
	http      *http.Client
	exited    chan struct{}
	stopOnce  sync.Once
}

// freePorts asks the kernel for two unused loopback ports, holding both
// open until both are chosen so that they differ.
func freePorts() (string, string, error) {
	a, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer a.Close()
	b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer b.Close()
	return a.Addr().String(), b.Addr().String(), nil
}

// logTail returns the last lines of a daemon's log, for error messages.
func logTail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}

// startDaemon execs innsearchd on the CSV and returns once /healthz
// answers 200, with the time that took: the serve workload's set-up.
func startDaemon(b *bench, csv, tracePath string) (*daemon, time.Duration, error) {
	addr, dbg, err := freePorts()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-debug-addr", dbg, "-data", "case2=" + csv,
		"-shards", "2", "-index", "vafile", "-log", "off"}
	if tracePath != "" {
		if err := os.Remove(tracePath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, 0, err
		}
		args = append(args, "-trace", tracePath)
	}
	logName := "innsearchd.log"
	if tracePath != "" {
		logName = "innsearchd.traced.log"
	}
	logf, err := os.Create(filepath.Join(b.buildDir, logName))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{
		base: "http://" + addr, debugBase: "http://" + dbg, trace: tracePath, log: logf.Name(),
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveAnalysts}},
		exited: make(chan struct{}),
	}
	start := time.Now()
	d.cmd = exec.Command(b.daemon, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", b.daemon, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a stopped daemon is not news
		close(d.exited)
	}()
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("innsearchd exited during start-up; its log ends:\n%s", logTail(d.log))
		default:
		}
		if resp, err := d.http.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("innsearchd did not become healthy within 60 s; its log ends:\n%s", logTail(d.log))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain overruns. Only the first call acts.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.http.CloseIdleConnections()
	})
}

// cpu stops the daemon and returns the CPU time it used over its life.
// It comes from the rusage of the daemon's exit, so the benchmark reads
// nothing outside its checkout to learn it.
func (d *daemon) cpu() time.Duration {
	d.stop()
	return cpuOfExited(d.cmd.ProcessState)
}

// call performs one request and returns the body of a 2xx response.
func (d *daemon) call(ctx context.Context, method, url string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// scrape is a snapshot of the daemon's own surfaces.
type scrape struct {
	metrics      map[string]float64
	hits, misses int64
	totalAlloc   float64
}

func (d *daemon) scrape(ctx context.Context) (scrape, error) {
	var s scrape
	raw, err := d.call(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return s, err
	}
	if s.metrics, err = loadgen.ParseMetrics(bytes.NewReader(raw)); err != nil {
		return s, err
	}
	raw, err = d.call(ctx, http.MethodGet, d.base+"/debug/sessions", nil)
	if err != nil {
		return s, err
	}
	var dbg loadgen.DebugSessions
	if err := json.Unmarshal(raw, &dbg); err != nil {
		return s, fmt.Errorf("decode /debug/sessions: %w", err)
	}
	s.hits, s.misses = dbg.IndexCache.Hits, dbg.IndexCache.Misses
	// The heap profile's text form ends with the runtime.MemStats of the
	// daemon, TotalAlloc among them.
	raw, err = d.call(ctx, http.MethodGet, d.debugBase+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return s, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			s.totalAlloc, err = strconv.ParseFloat(v, 64)
			if err != nil {
				return s, err
			}
		}
	}
	if s.totalAlloc == 0 {
		return s, errors.New("no TotalAlloc in the daemon's heap profile")
	}
	return s, nil
}

// wireSession is one session driven over HTTP by one analyst.
type wireSession struct {
	q         query
	id        string
	first     time.Duration
	views     samples // ms
	shown     int
	decisions []innsearch.Decision
	result    *wire.Result

	create, decideRTT, previewRTT, resultRTT samples // ms
	viewBytes, decodeUS                      samples
	a                                        *analyst
}

// runWire drives one session: create, long-poll each view, preview once
// over the wire, decide locally, post the decision, fetch the result.
func runWire(ctx context.Context, d *daemon, q query) (*wireSession, error) {
	a, err := newAnalyst(q.analystSeed, true)
	if err != nil {
		return nil, err
	}
	ws := &wireSession{q: q, a: a}
	row := q.row
	start := time.Now()
	raw, err := d.call(ctx, http.MethodPost, d.base+"/v1/sessions", wire.CreateSessionRequest{
		Dataset: "case2", QueryRow: &row, User: "remote", Config: wire.SessionConfig{Mode: "auto"},
	})
	if err != nil {
		return nil, err
	}
	ws.create.addDur(time.Since(start))
	var created wire.CreateSessionResponse
	if err := json.Unmarshal(raw, &created); err != nil {
		return nil, fmt.Errorf("decode create: %w", err)
	}
	ws.id = created.ID
	sessURL := d.base + "/v1/sessions/" + created.ID
	var decided time.Time
	for {
		raw, err := d.call(ctx, http.MethodGet, sessURL+"/view?wait=30s", nil)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		var vr wire.ViewResponse
		if err := json.Unmarshal(raw, &vr); err != nil {
			return nil, fmt.Errorf("decode view: %w", err)
		}
		if vr.State == wire.StateComputing {
			continue
		}
		if vr.State != wire.StateAwaiting {
			break
		}
		if vr.Profile == nil {
			return nil, errors.New("view awaiting a decision carries no profile")
		}
		p := vr.Profile.ToProfile()
		inHand := time.Now()
		ws.decodeUS.add(float64(inHand.Sub(t)) / float64(time.Microsecond))
		ws.viewBytes.add(float64(len(raw)))
		if ws.shown == 0 {
			ws.first = inHand.Sub(start)
		} else {
			ws.views.addDur(inHand.Sub(decided))
		}
		ws.shown++

		tp := time.Now()
		tau := url.QueryEscape(strconv.FormatFloat(0.5*p.QueryDensity, 'g', -1, 64))
		if _, err := d.call(ctx, http.MethodGet, fmt.Sprintf("%s/preview?seq=%d&tau=%s", sessURL, vr.Seq, tau), nil); err != nil {
			return nil, err
		}
		ws.previewRTT.addDur(time.Since(tp))

		dec := a.decide(p, func(tau float64) *innsearch.Region {
			reg, err := p.Region(tau)
			if err != nil {
				return nil
			}
			return reg
		})
		decided = time.Now()
		if _, err := d.call(ctx, http.MethodPost, sessURL+"/decision", wire.DecisionRequest{Seq: vr.Seq, Decision: wire.FromDecision(dec)}); err != nil {
			return nil, err
		}
		ws.decideRTT.addDur(time.Since(decided))
		ws.decisions = append(ws.decisions, dec)
	}
	tr := time.Now()
	raw, err = d.call(ctx, http.MethodGet, sessURL+"/result?wait=30s", nil)
	if err != nil {
		return nil, err
	}
	ws.resultRTT.addDur(time.Since(tr))
	var rr wire.ResultResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	if rr.State != wire.StateDone || rr.Result == nil {
		return nil, fmt.Errorf("session %s ended %s: %s", created.ID, rr.State, rr.Error)
	}
	ws.result = rr.Result
	if _, err := d.call(ctx, http.MethodDelete, sessURL, nil); err != nil {
		return nil, err
	}
	return ws, nil
}

// serveRound runs one round: the analysts take the round's queries in
// order from a shared queue, each starting its next session when its last
// one returns.
func serveRound(ctx context.Context, d *daemon, queries []query, perm []int) ([]*wireSession, []error, time.Duration) {
	next := make(chan query, len(perm)) // holds the whole round
	for _, k := range perm {
		next <- queries[k]
	}
	close(next)
	var mu sync.Mutex
	var out []*wireSession
	var errs []error
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < serveAnalysts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				ws, err := runWire(ctx, d, q)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("row %d: %w", q.row, err))
				} else {
					out = append(out, ws)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, errs, time.Since(start)
}

// serveTotals accumulates one daemon's timed rounds.
type serveTotals struct {
	timedTotals
	before, after scrape
	cpuSelf       time.Duration
	sessions      []*wireSession
}

func (t *serveTotals) addRound(sessions []*wireSession, wall time.Duration) {
	for _, ws := range sessions {
		t.first.addDur(ws.first)
		t.views = append(t.views, ws.views...)
		t.shown += ws.shown
		t.sessions = append(t.sessions, ws)
	}
	t.timedTotals.sessions += len(sessions)
	t.wall += wall
}

// runServe runs the serve workload against live innsearchd processes.
func runServe(ctx context.Context, b *bench) error {
	w := b.w
	if _, err := os.Stat(b.daemon); err != nil {
		return fmt.Errorf("innsearchd binary: %w (run.sh builds it)", err)
	}
	path, gen, err := w.writeCSV(b.dataDir())
	if err != nil {
		return err
	}
	ds, err := innsearch.LoadCSV(path)
	if err != nil {
		return err
	}
	if err := sameData(gen, ds); err != nil {
		b.fail("set-up: %v", err)
	}
	queries := w.querySet(ds)

	var plain *daemon
	// startCPU is the CPU time (ms) of a daemon that only started: the
	// share of the measured daemon's CPU that is not serving.
	var startCPU samples
	for i := 0; i < setupRepeats; i++ {
		d, took, err := startDaemon(b, path, "")
		if err != nil {
			return err
		}
		b.setup.add(took.Seconds())
		if i < setupRepeats-1 {
			startCPU.add(ms(d.cpu()))
		} else {
			plain = d
		}
	}
	defer plain.stop()
	daemons := []*daemon{plain}
	if b.trace {
		traced, _, err := startDaemon(b, path, filepath.Join(b.buildDir, "innsearchd.trace.jsonl"))
		if err != nil {
			return err
		}
		defer traced.stop()
		daemons = append(daemons, traced)
	}
	// Warm-up: one untimed session per daemon.
	for _, d := range daemons {
		if _, err := runWire(ctx, d, queries[0]); err != nil {
			return fmt.Errorf("warm-up session: %w", err)
		}
	}

	perm := order(len(queries), b.seed)
	totals := make([]*serveTotals, len(daemons))
	for i, d := range daemons {
		totals[i] = &serveTotals{}
		if totals[i].before, err = d.scrape(ctx); err != nil {
			return err
		}
	}
	var firstRound []*wireSession
	rounds := 0
	for {
		k := rounds % len(daemons)
		cpu0 := cpuSelf()
		sessions, errs, wall := serveRound(ctx, daemons[k], queries, perm)
		totals[k].cpuSelf += cpuSelf() - cpu0
		b.attempted += len(perm)
		b.failed += len(errs)
		for _, err := range errs {
			b.fail("%v", err)
		}
		totals[k].addRound(sessions, wall)
		b.roundWalls.addDur(wall)
		if rounds == 0 {
			firstRound = sessions
		}
		rounds++
		var elapsed time.Duration
		for _, t := range totals {
			elapsed += t.wall
		}
		if b.enoughRounds(elapsed, rounds) {
			break
		}
	}
	b.rounds = rounds
	for i, d := range daemons {
		if totals[i].after, err = d.scrape(ctx); err != nil {
			return err
		}
	}
	for _, t := range totals {
		for _, ws := range t.sessions {
			b.checkWire(ws, ds.Dim())
		}
	}
	first, err := b.replay(ctx, ds, queries, firstRound)
	if err != nil {
		return err
	}

	base := totals[0]
	if !b.trace {
		b.endToEnd(&base.timedTotals, (base.after.totalAlloc - base.before.totalAlloc))
		return nil
	}
	tr := totals[1]
	l := newLayerAcc()
	if err := l.serveLayers(b, daemons[1], tr); err != nil {
		return err
	}
	n := float64(base.timedTotals.sessions)
	// The untraced daemon served the warm-up session and the timed ones;
	// its start-up is taken out as the median of the set-up daemons'.
	l.set("server.cpu_ms_per_session", (ms(plain.cpu())-startCPU.median())/(n+1))
	l.set("loadgen.cpu_ms_per_session", ms(base.cpuSelf)/n)
	l.set("telemetry.trace_overhead_pct", 100*(1-tr.sessionsPerSecond()/base.sessionsPerSecond()))
	if err := l.kernelProbes(ctx, ds, ds.PointCopy(queries[0].row), first, false, path, min(ds.Dim(), ds.N())); err != nil {
		return err
	}
	var bytesSum, decode samples
	for _, ws := range tr.sessions {
		bytesSum = append(bytesSum, ws.viewBytes...)
		decode = append(decode, ws.decodeUS...)
	}
	l.set("wire.view_kb", bytesSum.mean()/1000)
	l.setSample("wire.view_decode_us", decode)
	b.perLayer(l)
	return nil
}

// serveLayers reads the traced daemon's surfaces: its trace file, the
// /metrics and /debug/sessions deltas, and the client's own spans.
func (l *layerAcc) serveLayers(b *bench, d *daemon, t *serveTotals) error {
	ids := make(map[string]bool, len(t.sessions))
	for _, ws := range t.sessions {
		ids[ws.id] = true
		l.decide = append(l.decide, ws.a.decideMS...)
		l.preview = append(l.preview, ws.a.previewUS...)
		l.views += ws.shown
	}
	f, err := os.Open(d.trace)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	var evs []telemetry.Event
	var waitMS float64
	for {
		var e telemetry.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("read %s: %w", d.trace, err)
		}
		if !ids[e.Session] {
			continue
		}
		evs = append(evs, e)
		if e.Type == telemetry.EventDecisionWait {
			waitMS += e.DurationMS
		}
	}
	l.addEvents(evs)
	// The daemon's engine time: its major iterations less the time they
	// waited for the analysts' decisions.
	l.engineMS = l.iteration.sum() - waitMS

	delta := func(name string) float64 { return t.after.metrics[name] - t.before.metrics[name] }
	if c := delta("innsearch_view_latency_seconds_count"); c > 0 {
		l.set("server.view_build_ms", 1000*delta("innsearch_view_latency_seconds_sum")/c)
	}
	if c := delta("innsearch_shard_gather_seconds_count"); c > 0 {
		l.set("shard.gather_ms", 1000*delta("innsearch_shard_gather_seconds_sum")/c)
		if v := delta("innsearch_views_served_total"); v > 0 {
			l.set("shard.scatters_per_view", c/2/v)
		}
	}
	if h, m := t.after.hits-t.before.hits, t.after.misses-t.before.misses; h+m > 0 {
		l.set("index.cache_hit_ratio", float64(h)/float64(h+m))
	}
	var create, decide, preview, result samples
	for _, ws := range t.sessions {
		create = append(create, ws.create...)
		decide = append(decide, ws.decideRTT...)
		preview = append(preview, ws.previewRTT...)
		result = append(result, ws.resultRTT...)
	}
	l.setSample("server.create_ms", create)
	l.setSample("server.decide_ms", decide)
	l.setSample("server.preview_ms", preview)
	l.setSample("server.result_ms", result)
	b.note("traced daemon: %d sessions, %d trace events read", len(t.sessions), len(evs))
	return nil
}

// checkWire checks a served result on its own: the neighbours must be the
// top-s rows of the wire probabilities, in non-increasing order.
func (b *bench) checkWire(ws *wireSession, dim int) {
	probs := make(map[int]float64, len(ws.result.Probabilities))
	for _, p := range ws.result.Probabilities {
		probs[p.ID] = p.Probability
	}
	nbs := make([]innsearch.Neighbor, len(ws.result.Neighbors))
	for i, nb := range ws.result.Neighbors {
		nbs[i] = innsearch.Neighbor{ID: nb.ID, Probability: nb.Probability}
	}
	if err := checkNeighbors(nbs, probs, dim); err != nil {
		b.fail("served row %d: %v", ws.q.row, err)
	}
	if ws.shown < ws.result.ViewsShown {
		b.fail("served row %d: the analyst saw %d views, the result reports %d", ws.q.row, ws.shown, ws.result.ViewsShown)
	}
	b.checked++
}

// replay re-runs a fixed sample of the first round's sessions in-process
// with the decisions the analysts sent, and requires the served result
// to equal the in-process one field for field; the in-process session
// also gets the independent checks. It returns the first view of the
// first replay, the input shape of the kernel probes.
func (b *bench) replay(ctx context.Context, ds *innsearch.Dataset, queries []query, round []*wireSession) (*innsearch.VisualProfile, error) {
	byRow := make(map[int]*wireSession, len(round))
	for _, ws := range round {
		byRow[ws.q.row] = ws
	}
	var first *innsearch.VisualProfile
	for _, q := range queries[:replaySample] {
		ws, ok := byRow[q.row]
		if !ok {
			continue // the session failed, which is already reported
		}
		a := &analyst{policy: &replayUser{decisions: ws.decisions}}
		run, err := runSession(ctx, ds, ds.PointCopy(q.row), a, serveConfig, false)
		if err != nil {
			b.fail("replay of row %d: %v", q.row, err)
			continue
		}
		if first == nil {
			first = a.firstSeen
		}
		if got := wire.FromResult(run.res); !reflect.DeepEqual(got, *ws.result) {
			b.fail("replay of row %d: the served result differs from the in-process one", q.row)
		}
		if err := checkSession(run.res, run.trail, ds.IDs(), ds.ID(q.row), ds.Dim()); err != nil {
			b.fail("replay of row %d: %v", q.row, err)
		}
		if a.shown != len(ws.decisions) {
			b.fail("replay of row %d: %d views in-process, %d served", q.row, a.shown, len(ws.decisions))
		}
	}
	if first == nil {
		return nil, errors.New("no session of the first round could be replayed")
	}
	return first, nil
}

// replayUser answers each view with the next recorded decision, verbatim.
type replayUser struct {
	decisions []innsearch.Decision
	next      int
}

func (r *replayUser) SeparateCluster(*innsearch.VisualProfile, func(float64) *innsearch.Region) innsearch.Decision {
	if r.next >= len(r.decisions) {
		return innsearch.Decision{Skip: true}
	}
	d := r.decisions[r.next]
	r.next++
	return d
}
