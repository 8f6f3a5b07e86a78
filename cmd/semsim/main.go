// Command semsim runs a single-electron circuit simulation from a
// SPICE-like input deck (the paper's Example Input File 1 dialect) and
// prints the recorded junction currents, one row per sweep point.
//
// Usage:
//
//	semsim [-o out.dat] input.cir
//	semsim < input.cir
//
// The deck carries every simulation setting: rate tables, the C^-1
// truncation threshold and the noise counting windows are its
// rate-tables, cinv-eps and record fano directives (docs/DECK.md).
// The flags only choose how the run executes: checkpointing, task
// workers and observability.
//
// Output columns: the swept source value (volts) followed by the
// time-averaged current (amperes) of each recorded junction. Decks
// with `record noise` / `record fano` directives additionally get the
// folded Fano factor (with its cross-run standard error) and one
// spectral-density column per requested ω. Lines starting with '#'
// describe the run.
//
// With -follow URL the command instead attaches to a job running on a
// semsimd daemon and renders its live event stream (progress, task
// completions, checkpoints, retries) until the job ends:
//
//	semsim -follow http://localhost:8723/api/v1/jobs/j000001
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"semsim"
	"semsim/internal/jobs"
	"semsim/internal/obs"
)

func main() {
	out := flag.String("o", "", "write results to this file instead of stdout")
	ckptDir := flag.String("checkpoint-dir", "", "persist periodic atomic checkpoints of every run in this directory (crash-safe; created if missing)")
	ckptEvery := flag.Int("checkpoint-every", 0, "target events between checkpoints (0 = default; rounded up to the solver refresh period)")
	resume := flag.Bool("resume", false, "continue from checkpoints found in -checkpoint-dir (bit-identical to an uninterrupted run)")
	deckWorkers := flag.Int("workers", 1, "concurrent (point, run) tasks (results are bit-identical at any value)")
	obsAddr := flag.String("obs-addr", "", "serve live metrics, trace and pprof on this address (e.g. :6060)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event journal of the run to this file")
	progress := flag.Bool("progress", false, "print periodic progress lines to stderr")
	follow := flag.String("follow", "", "stream a semsimd job's live events instead of running a deck (job URL, e.g. http://host:8723/api/v1/jobs/j000001)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: semsim [-o out.dat] [-checkpoint-dir d] [-resume] [-workers n] [-obs-addr :6060] [-trace run.json] [-progress] [input.cir]\n       semsim -follow http://host:8723/api/v1/jobs/{id}\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *follow != "" {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if err := jobs.Follow(ctx, *follow, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	stopObs, err := obs.StartCLI(obs.CLIConfig{Addr: *obsAddr, TraceFile: *traceFile, Progress: *progress})
	if err != nil {
		fatal(err)
	}

	var in io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}

	deck, err := semsim.ParseNetlist(in)
	if err != nil {
		fatal(err)
	}
	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume needs -checkpoint-dir"))
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
	}
	// With checkpointing on, the first SIGINT/SIGTERM drains: in-flight
	// runs persist a final snapshot at their next refresh boundary and
	// the process exits resumable. A second signal kills immediately.
	stop := make(chan struct{})
	if *ckptDir != "" {
		sigs := make(chan os.Signal, 2)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sigs
			fmt.Fprintln(os.Stderr, "semsim: checkpointing and stopping (signal again to abort)")
			close(stop)
			<-sigs
			os.Exit(1)
		}()
	}
	pts, err := semsim.RunDeckCtx(context.Background(), deck, semsim.DeckRunConfig{
		Dir:     *ckptDir,
		Every:   *ckptEvery,
		Resume:  *resume,
		Workers: *deckWorkers,
		Stop:    stop,
	})
	if errors.Is(err, semsim.ErrDeckInterrupted) {
		fmt.Fprintf(os.Stderr, "semsim: interrupted; resume with: semsim -checkpoint-dir %s -resume %s\n", *ckptDir, name)
		os.Exit(3)
	}
	if err != nil {
		fatal(err)
	}

	f := os.Stdout
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fatal(err)
		}
	}
	if err := errors.Join(writeTable(f, name, deck, pts), f.Close()); err != nil {
		fatal(err)
	}
	if err := stopObs(); err != nil {
		fatal(err)
	}
}

// writeTable prints the commented run header and one row per folded
// point of deck's run to out, and returns the first write error.
func writeTable(out io.Writer, name string, deck *semsim.Deck, pts []semsim.DeckPoint) error {
	w := bufio.NewWriter(out)
	// Every column comes from the deck's record directives, not from
	// the result points, so the layout is stable even when some points
	// (the first one included) are fully blockaded and fold no current:
	// one I column per recorded junction in id order, then F and its
	// standard error per noise-recorded junction and one S column per
	// requested ω.
	juncs := append([]int(nil), deck.Spec.RecordJuncs...)
	sort.Ints(juncs)
	ncols := deck.Spec.NoiseRecords()
	fmt.Fprintf(w, "# semsim run of %s\n", name)
	fmt.Fprintf(w, "# temp=%g K adaptive=%v cotunnel=%v jumps=%d\n",
		deck.Spec.Temp, deck.Spec.Adaptive, deck.Spec.Cotunnel, deck.Spec.Jumps)
	for _, nc := range ncols {
		if len(nc.Omegas) > 0 {
			fmt.Fprintf(w, "# noise junc%d omegas [rad/s]:", nc.Junc)
			for _, om := range nc.Omegas {
				fmt.Fprintf(w, " %g", om)
			}
			fmt.Fprintln(w)
		}
	}
	isMap := deck.Spec.Map != nil
	if isMap {
		fmt.Fprintf(w, "# columns: Vx Vy")
	} else {
		fmt.Fprintf(w, "# columns: Vsweep")
	}
	for _, j := range juncs {
		fmt.Fprintf(w, " I(junc%d)", j)
	}
	for _, nc := range ncols {
		fmt.Fprintf(w, " F(junc%d) dF(junc%d)", nc.Junc, nc.Junc)
		for k := range nc.Omegas {
			fmt.Fprintf(w, " S(junc%d,w%d)", nc.Junc, k)
		}
	}
	fmt.Fprintln(w)
	for _, p := range pts {
		fmt.Fprintf(w, "%.8g", p.SweepV)
		if isMap {
			fmt.Fprintf(w, " %.8g", p.Y)
		}
		for _, j := range juncs {
			fmt.Fprintf(w, " %.6e", p.Current[j])
		}
		for _, nc := range ncols {
			st := p.Noise[nc.Junc]
			fmt.Fprintf(w, " %.6e %.6e", st.Fano, st.FanoErr)
			for k := range nc.Omegas {
				v := math.NaN()
				if k < len(st.S) {
					v = st.S[k]
				}
				fmt.Fprintf(w, " %.6e", v)
			}
		}
		if p.Blockaded {
			fmt.Fprintf(w, " # blockaded")
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "semsim:", err)
	os.Exit(1)
}
