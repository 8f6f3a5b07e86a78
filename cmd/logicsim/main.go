// Command logicsim simulates a gate-level logic netlist as
// single-electron nSET/pSET logic (the paper's large-scale circuit
// flow): it expands the gates, applies a step stimulus to one input,
// runs the Monte Carlo solver, and reports logic levels, the output
// waveform and the propagation delay.
//
// Usage:
//
//	logicsim [flags] circuit.logic
//
// The netlist format is one gate per line ("y = NAND a b"; kinds INV,
// BUF, NAND, NOR, AND, OR, XOR), with "input"/"output" declarations;
// see `go run ./cmd/benchgen c432` for a large example.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"semsim"
	"semsim/internal/bench"
	"semsim/internal/jobs"
	"semsim/internal/obs"
)

var (
	toggle    = flag.String("toggle", "", "input to step 0 -> Vdd mid-run (default: first input)")
	high      = flag.String("high", "", "comma-separated inputs tied to logic high")
	watch     = flag.String("watch", "", "output wire to time (default: first output)")
	temp      = flag.Float64("temp", bench.WorkloadTemp, "temperature in kelvin")
	seed      = flag.Uint64("seed", 1, "Monte Carlo seed")
	adaptive  = flag.Bool("adaptive", false, "use the adaptive solver")
	cinvEps   = flag.Float64("cinv-eps", 0, "truncate C^-1 rows at eps*rowmax, finite with 0 <= eps < 1 (0 = the default 1e-14; every run reports its error bound)")
	vcdPath   = flag.String("vcd", "", "write the watched waveform as VCD to this file")
	ckptPath  = flag.String("checkpoint", "", "persist periodic atomic snapshots of the run to this file (crash-safe)")
	ckptEvery = flag.Int("checkpoint-every", 0, "target events between snapshots (0 = default; rounded up to the solver refresh period)")
	resume    = flag.Bool("resume", false, "continue from the -checkpoint file (bit-identical to an uninterrupted run)")
	obsAddr   = flag.String("obs-addr", "", "serve live metrics, trace and pprof on this address (e.g. :6060)")
	traceFile = flag.String("trace", "", "write a Chrome trace_event journal of the run to this file")
	progress  = flag.Bool("progress", false, "print periodic progress lines to stderr")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: logicsim [flags] circuit.logic")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	nl, err := semsim.ParseLogic(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(nl.Inputs) == 0 || len(nl.Outputs) == 0 {
		fatal(fmt.Errorf("netlist needs at least one input and one output"))
	}

	tog := *toggle
	if tog == "" {
		tog = nl.Inputs[0]
	}
	out := *watch
	if out == "" {
		out = nl.Outputs[0]
	}
	highSet := map[string]bool{}
	for _, h := range strings.Split(*high, ",") {
		if h != "" {
			highSet[h] = true
		}
	}

	p := semsim.DefaultLogicParams()
	vdd := p.Vdd()
	drive := map[string]semsim.Source{}
	assign := map[string]bool{}
	for _, in := range nl.Inputs {
		level := 0.0
		assign[in] = false
		if highSet[in] {
			level = vdd
			assign[in] = true
		}
		drive[in] = semsim.DC(level)
	}
	const stepAt = bench.SettleTime
	drive[tog] = semsim.PWL{T: []float64{0, stepAt, stepAt + bench.StepRamp}, Volt: []float64{0, 0, vdd}}

	ex, err := semsim.ExpandLogicWith(nl, p, drive, semsim.BuildOptions{CinvTruncation: *cinvEps})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(stdout, "%s: %d gates -> %d SETs, %d junctions, Vdd = %.2f mV, T = %g K\n",
		nl.Name, len(nl.Gates), ex.NumSETs, ex.Circuit.NumJunctions(), vdd*1e3, *temp)

	// Expected boolean values for the post-step assignment.
	assign[tog] = true
	want, err := nl.Eval(assign)
	if err != nil {
		fatal(err)
	}

	stopObs, err := obs.StartCLI(obs.CLIConfig{
		Addr: *obsAddr, TraceFile: *traceFile, Progress: *progress,
		TargetSim: stepAt + bench.ObserveFor,
	})
	if err != nil {
		fatal(err)
	}

	sim, err := semsim.NewSim(ex.Circuit, semsim.Options{Temp: *temp, Seed: *seed, Adaptive: *adaptive})
	if err != nil {
		fatal(err)
	}
	outNode := ex.Wire[out]
	sim.AddProbe(outNode)

	if *resume {
		if *ckptPath == "" {
			fatal(fmt.Errorf("-resume needs -checkpoint"))
		}
		cp, err := jobs.LoadSim(*ckptPath)
		if err != nil {
			fatal(err)
		}
		if err := sim.Restore(cp); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "resumed from %s: %d events, t = %.3f us\n",
			*ckptPath, sim.Stats().Events, sim.Time()*1e6)
	}

	// With a checkpoint file configured, SIGINT/SIGTERM drains: the run
	// persists a final snapshot at its next refresh boundary and exits
	// resumable instead of losing the progress.
	runCtx := context.Background()
	var ck *jobs.Checkpointer
	if *ckptPath != "" {
		ck = &jobs.Checkpointer{Path: *ckptPath, Every: *ckptEvery}
		var cancel context.CancelFunc
		runCtx, cancel = signal.NotifyContext(runCtx, syscall.SIGINT, syscall.SIGTERM)
		defer cancel()
	}
	// The header shows while the run goes, and the interrupt exit below
	// leaves nothing unwritten.
	flushStdout()
	_, err = jobs.RunSim(runCtx, sim, 0, stepAt+bench.ObserveFor, ck)
	if errors.Is(err, jobs.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "logicsim: interrupted at %d events; resume with -checkpoint %s -resume\n",
			sim.Stats().Events, *ckptPath)
		os.Exit(3)
	}
	if err != nil && err != semsim.ErrBlockaded {
		fatal(err)
	}

	// Final logic levels of all declared outputs, checked against the
	// boolean evaluation.
	fmt.Fprintln(stdout, "\nfinal output levels:")
	var names []string
	names = append(names, nl.Outputs...)
	sort.Strings(names)
	thr := ex.LogicThreshold()
	for _, o := range names {
		v := sim.Potential(ex.Wire[o])
		got := v > thr
		mark := "OK"
		if got != want[o] {
			mark = "MISMATCH"
		}
		fmt.Fprintf(stdout, "  %-12s %7.2f mV  logic %v (expected %v) %s\n", o, v*1e3, got, want[o], mark)
	}

	d, err := semsim.PropagationDelay(sim.Waveform(outNode), stepAt+bench.StepRamp, thr, 20e-9, want[out])
	if err != nil {
		fmt.Fprintf(stdout, "\nno %s transition observed after the step (%v)\n", out, err)
	} else {
		fmt.Fprintf(stdout, "\npropagation delay to %s: %.1f ns\n", out, d*1e9)
	}
	st := sim.Stats()
	fmt.Fprintf(stdout, "%d tunnel events, %.1f rate calcs/event, simulated %.2f us\n",
		st.Events, float64(st.RateCalcs)/float64(st.Events), sim.Time()*1e6)

	if *vcdPath != "" {
		vf, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		err = semsim.WriteVCD(vf, "logicsim", []semsim.VCDSignal{{
			Name:      out,
			Threshold: thr,
			Samples:   sim.Waveform(outNode),
		}})
		if err != nil {
			fatal(err)
		}
		if err := vf.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *vcdPath)
	}
	flushStdout()
	if err := stopObs(); err != nil {
		fatal(err)
	}
}

// stdout buffers the command's standard output; like every
// bufio.Writer it keeps the first write error, which flushStdout
// reports.
var stdout = bufio.NewWriter(os.Stdout)

// flushStdout writes out what stdout holds and exits 1 naming the first
// write error.
func flushStdout() {
	if err := stdout.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	// Lines printed before the failure still go out; the error to
	// report is err, not a second write error.
	_ = stdout.Flush()
	fmt.Fprintln(os.Stderr, "logicsim:", err)
	os.Exit(1)
}
