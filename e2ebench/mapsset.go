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
	"os"
	"path/filepath"
	"strings"
	"time"

	"semsim/internal/circuit"
	"semsim/internal/jobs"
	"semsim/internal/netlist"
	"semsim/internal/obs"
	"semsim/internal/sweep"
)

// mapWorkload POSTs the refined superconducting-SET stability map to an
// in-process semsimd — jobs.NewEngine with 2 workers and a temporary
// checkpoint directory, served by jobs.NewHandler on 127.0.0.1 — waits
// for the job's terminal state on its event stream, and GETs the result.
// One client, one job in flight.
type mapWorkload struct {
	text          string
	dir           string
	spec          netlist.Spec // the deck as parsed by the benchmark, for the checks
	coarse        [][2]float64 // coarse grid coordinates
	lattice       int          // points of the fully refined lattice
	plain, traced *daemon      // untraced and traced daemons
	client        *http.Client
	last          *netlist.Compiled
}

// mapCheckpointEvery makes each 2400-event task persist one snapshot.
const mapCheckpointEvery = 2048

// mapTiny shrinks the map for smoke tests: a 5x5 grid refined once.
var mapTiny = map[string]string{
	"jumps": "jumps 400", "map x": "map x 2 0 0.0114 5", "map y": "map y 1 0 0.0016 5", "refine": "refine 1 0.1",
}

// daemon is one in-process semsimd.
type daemon struct {
	engine *jobs.Engine
	srv    *http.Server
	base   string
	served chan error
}

func startDaemon(dir string, o *obs.Observer) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := jobs.NewEngine(jobs.EngineConfig{
		Workers: deckWorkers, CheckpointDir: dir, CheckpointEvery: mapCheckpointEvery, Obs: o,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return nil, err
	}
	d := &daemon{
		engine: e,
		srv:    &http.Server{Handler: jobs.NewHandler(e, o)},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the engine, closes the listener and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errE := d.engine.Shutdown(ctx)
	errS := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(errE, errS)
}

func newMapWorkload(cfg runConfig, o *obs.Observer) (*mapWorkload, error) {
	var edits map[string]string
	if cfg.scale == "tiny" {
		edits = mapTiny
	}
	text, err := deckText(mapDeck, cfg.seed, edits)
	if err != nil {
		return nil, err
	}
	d, err := netlist.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	mp := d.Spec.Map
	xs, ys := mp.X.Values(), mp.Y.Values()
	w := &mapWorkload{
		text:    text,
		spec:    d.Spec,
		lattice: len(sweep.RefineAxis(xs, mp.Depth)) * len(sweep.RefineAxis(ys, mp.Depth)),
		client:  &http.Client{Timeout: 150 * time.Second},
	}
	for _, y := range ys {
		for _, x := range xs {
			w.coarse = append(w.coarse, [2]float64{x, y})
		}
	}
	if w.dir, err = os.MkdirTemp(cfg.tmpDir(), "map-"); err != nil {
		return nil, err
	}
	if w.plain, err = startDaemon(filepath.Join(w.dir, "plain"), nil); err != nil {
		w.close()
		return nil, err
	}
	if o != nil {
		if w.traced, err = startDaemon(filepath.Join(w.dir, "traced"), o); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *mapWorkload) setupSamples() int { return 51 }

// warmups fills the process-wide quasi-particle tables and each
// daemon's worker sessions.
func (w *mapWorkload) warmups() int { return 1 }

func (w *mapWorkload) setupOnce(tr *tracer, o *obs.Observer) (setupResult, error) {
	// The engine runs map tasks with serial rate evaluation (2 workers
	// already fill the machine).
	res, cc, err := deckSetupOnce(tr, o, w.text, 1)
	w.last = cc
	return res, err
}

func (w *mapWorkload) rep(tr *tracer, o *obs.Observer) (repResult, error) {
	var r repResult
	d := w.plain
	if o != nil {
		d = w.traced
	}
	start := time.Now()
	body, err := json.Marshal(jobs.SubmitRequest{Deck: w.text})
	if err != nil {
		return r, err
	}
	var sub jobs.SubmitResponse
	submit, err := tr.timed("http.submit", func() error {
		return w.call(http.MethodPost, d.base+"/api/v1/jobs", body, &sub)
	})
	if err != nil {
		return r, err
	}
	job := d.base + "/api/v1/jobs/" + sub.ID
	wait, err := tr.timed("jobs.wait", func() error { return w.call(http.MethodGet, job+"/events", nil, nil) })
	if err != nil {
		return r, err
	}
	var st jobs.JobStatus
	var res jobs.ResultResponse
	_, err = tr.timed("http.status", func() error { return w.call(http.MethodGet, job, nil, &st) })
	if err != nil {
		return r, err
	}
	result, err := tr.timed("http.result", func() error { return w.call(http.MethodGet, job+"/result", nil, &res) })
	if err != nil {
		return r, fmt.Errorf("job %s ended %s: %w", sub.ID, st.State, err)
	}
	_, _ = tr.timed("check", func() error {
		w.check(&r.checks, st, res.Points)
		return nil
	})
	r.wall = time.Since(start).Seconds()
	r.simulate = submit + wait
	r.checks.add(st.TasksDone)
	r.events = measuredEvents(res.Points)
	r.points = len(res.Points)
	r.counters = map[string]string{
		"jobs.tasks":             fmt.Sprint(st.TasksTotal),
		"sweep.simulated_points": fmt.Sprint(len(res.Points)),
		"jobs.measured_events":   fmt.Sprint(r.events),
		"result.digest":          digestPoints(res.Points),
	}
	if o != nil {
		r.layers = map[string]float64{
			"http.submit_ms":         submit * 1e3,
			"http.result_ms":         result * 1e3,
			"sweep.lattice_points":   float64(w.lattice),
			"sweep.simulated_points": float64(len(res.Points)),
			"jobs.tasks":             float64(st.TasksTotal),
		}
		if err := w.traceLayers(job, r.layers); err != nil {
			return r, err
		}
	}
	return r, nil
}

// call sends one request and decodes a JSON answer into out (or, with
// out nil, reads the body to its end — an event stream ends once the
// job is terminal).
func (w *mapWorkload) call(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// check verifies a finished map: the job is done, every point's current
// is finite, the whole coarse grid is present, and refinement added
// points without leaving the fine lattice.
func (w *mapWorkload) check(t *tally, st jobs.JobStatus, pts []jobs.Point) {
	t.check(st.State == jobs.StateDone, "map: job state %s: %s", st.State, st.Error)
	j := w.spec.RecordJuncs[0]
	seen := map[[2]float64]bool{}
	for _, p := range pts {
		seen[[2]float64{p.SweepV, p.Y}] = true
		t.check(finite(p.Current[j]), "map: current %g at (%g, %g)", p.Current[j], p.SweepV, p.Y)
	}
	missing := 0
	for _, c := range w.coarse {
		if !seen[c] {
			missing++
		}
	}
	t.check(missing == 0, "map: %d of %d coarse points missing", missing, len(w.coarse))
	t.check(len(pts) > len(w.coarse) && len(pts) <= w.lattice,
		"map: %d simulated points, want more than the %d coarse and at most the %d lattice points",
		len(pts), len(w.coarse), w.lattice)
	t.check(st.TasksTotal == len(pts)*max(w.spec.Runs, 1), "map: %d tasks for %d points", st.TasksTotal, len(pts))
}

// chromeTrace is the subset of a job's merged Chrome trace the layer
// metrics read.
type chromeTrace struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Dur  float64         `json:"dur"` // microseconds
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

// traceLayers reads the job's Chrome trace: per-task spans give task
// latency and worker occupancy, checkpoint spans give write latency and
// snapshot size.
func (w *mapWorkload) traceLayers(job string, layers map[string]float64) error {
	var tr chromeTrace
	if err := w.call(http.MethodGet, job+"/trace", nil, &tr); err != nil {
		return err
	}
	var tasks, writes, kb []float64
	var busy, running float64
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch {
		case ev.Cat == "task":
			tasks = append(tasks, ev.Dur/1e3)
			busy += ev.Dur
		case ev.Cat == "checkpoint":
			writes = append(writes, ev.Dur/1e3)
			var args struct{ Bytes float64 }
			if err := json.Unmarshal(ev.Args, &args); err == nil {
				kb = append(kb, args.Bytes/1024)
			}
		case ev.Cat == "span" && ev.Name == "running":
			running = ev.Dur
		}
	}
	layers["jobs.task_ms_p50"] = quantile(tasks, 0.5)
	layers["jobs.task_ms_p99"] = quantile(tasks, 0.99)
	layers["jobs.worker_busy_frac"] = ratio(busy, deckWorkers*running)
	layers["jobs.checkpoint_write_ms_p50"] = quantile(writes, 0.5)
	layers["jobs.checkpoint_write_ms_p99"] = quantile(writes, 0.99)
	layers["jobs.checkpoint_kb"] = median(kb)
	return nil
}

// buildLayer times BuildWith on an unbuilt copy of the deck's circuit.
func (w *mapWorkload) buildLayer() (float64, error) {
	if w.last == nil {
		return 0, errors.New("no circuit was compiled")
	}
	return timeBuild(w.last.Circuit, circuit.BuildOptions{})
}

func (w *mapWorkload) describe() (map[string]any, []workerConfig) {
	mp := w.spec.Map
	return map[string]any{
			"coarse_grid":      fmt.Sprintf("%dx%d", mp.X.Points, mp.Y.Points),
			"refine_depth":     mp.Depth,
			"lattice_points":   w.lattice,
			"jumps":            w.spec.Jumps,
			"runs_per_point":   max(w.spec.Runs, 1),
			"checkpoint_every": mapCheckpointEvery,
			"junctions":        2,
		}, []workerConfig{
			{Name: "jobs.Engine task workers", Workers: deckWorkers, Engaged: true},
			{Name: "solver within-run pool (Engine forces serial tasks)", Workers: 1},
		}
}

func (w *mapWorkload) close() error {
	var errs []error
	for _, d := range []*daemon{w.plain, w.traced} {
		if d != nil {
			errs = append(errs, d.stop())
		}
	}
	if w.dir != "" {
		errs = append(errs, os.RemoveAll(w.dir))
	}
	return errors.Join(errs...)
}
