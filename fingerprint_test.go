package semsim

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"semsim/internal/bench"
	"semsim/internal/jobs"
	"semsim/internal/logicnet"
	"semsim/internal/netlist"
	"semsim/internal/solver"
)

// Trajectory fingerprints turn "bit-identical" into a test. Each line
// of testdata/fingerprints.txt is a SHA-256 per (GOARCH, workload,
// mode, seed) over the float bits of what the path returns: events,
// rate calcs, final time, island charges where the path exposes them,
// and folded currents. Lines are keyed by GOARCH because Go may fuse
// multiply-adds on some architectures (arm64) and not on others
// (amd64). A change that moves a trajectory on purpose rewrites the
// file with
//
//	go test -run TestTrajectoryFingerprints -update .
//
// which prints every line that moved, so the move is a reviewed diff.
var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.txt and print the lines that moved")

const fingerprintFile = "testdata/fingerprints.txt"

// fpDeckIV is a SET I-V deck with cotunneling and windowed counting
// statistics: 5 sweep points x 2 runs.
const fpDeckIV = `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.004
record 1 2
record fano 2
cotunnel
jumps 3000 2
sweep 2 0.04 0.02
symm 1
seed 3
temp 5
adaptive 0.05
refresh 256
`

// fpDeckMap is a superconducting-SET stability map (quasi-particle and
// Cooper-pair kernels) on a 4x3 coarse grid refined two levels.
const fpDeckMap = `
junc 1 1 4 4.7619e-6 110e-18
junc 2 2 4 4.7619e-6 110e-18
cap 3 4 14e-18
charge 4 0.65
vdc 1 0.001
vdc 2 0
vdc 3 0
super 0.00023 1.4
record 1
jumps 600
map x 1 0.0004 0.0016 4
map y 3 0 0.01 3
refine 2 0.15
seed 5
temp 0.52
`

// fpDeckChain is a 3-island series chain built with truncated C^-1 rows.
const fpDeckChain = `
junc 1 1 2 1e-6 1e-18
junc 2 2 3 1e-6 1e-18
junc 3 3 4 1e-6 1e-18
junc 4 4 5 1e-6 1e-18
cap 6 3 2e-18
vdc 1 0.05
vdc 5 -0.05
vdc 6 0.01
record 2
jumps 1
temp 2
cinv-eps 1e-6
`

// fpHasher accumulates float and integer bits in a fixed order.
type fpHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newFP() *fpHasher { return &fpHasher{h: sha256.New()} }

func (f *fpHasher) u(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fpHasher) f(vs ...float64) {
	for _, v := range vs {
		f.u(math.Float64bits(v))
	}
}

func (f *fpHasher) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// fpPoints hashes folded deck points: coordinates, blockade flag,
// measured events, currents and noise statistics in junction order.
func fpPoints(pts []jobs.Point) string {
	f := newFP()
	f.u(uint64(len(pts)))
	for _, p := range pts {
		f.f(p.SweepV, p.Y)
		if p.Blockaded {
			f.u(1)
		} else {
			f.u(0)
		}
		f.u(p.Events)
		for _, j := range sortedKeys(p.Current) {
			f.u(uint64(j))
			f.f(p.Current[j])
		}
		for _, j := range sortedKeys(p.Noise) {
			st := p.Noise[j]
			f.u(uint64(j))
			f.u(uint64(st.Runs))
			f.u(st.Windows)
			f.f(st.MeanI, st.Window, st.Fano, st.FanoErr)
			f.f(st.S...)
			f.f(st.SErr...)
		}
	}
	return f.sum()
}

// fpSim hashes a solver's end state: work counters, final time, island
// electron counts and every junction's measured current.
func fpSim(s *solver.Sim, c *Circuit) string {
	f := newFP()
	st := s.Stats()
	f.u(st.Events)
	f.u(st.RateCalcs)
	f.f(s.Time())
	for _, n := range c.Islands() {
		f.u(uint64(int64(s.ElectronCount(n))))
	}
	for j := 0; j < c.NumJunctions(); j++ {
		f.f(s.JunctionCurrent(j))
	}
	return f.sum()
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func fpParse(t *testing.T, src string) *netlist.Deck {
	t.Helper()
	d, err := netlist.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fingerprints runs every workload and returns "workload mode seed=N"
// -> SHA-256.
func fingerprints(t *testing.T) map[string]string {
	out := map[string]string{}
	put := func(workload, mode string, seed uint64, sum string) {
		out[fmt.Sprintf("%s %s seed=%d", workload, mode, seed)] = sum
	}
	ctx := context.Background()

	// Deck paths.
	iv := fpParse(t, fpDeckIV)
	pts, err := RunDeckCtx(ctx, iv, DeckRunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	put("deck/set-iv-cotunnel-fano", "execute-w2", iv.Spec.Seed, fpPoints(pts))

	// The same deck with every task interrupted at its first checkpoint
	// boundary, then resumed from disk.
	dir := t.TempDir()
	closed := make(chan struct{})
	close(closed)
	_, err = RunDeckCtx(ctx, iv, DeckRunConfig{
		Dir: dir, Every: 1, Resume: true, Workers: 2, Stop: closed,
	})
	if !errors.Is(err, ErrDeckInterrupted) {
		t.Fatalf("interrupted execution: %v", err)
	}
	pts, err = RunDeckCtx(ctx, iv, DeckRunConfig{Dir: dir, Resume: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	put("deck/set-iv-cotunnel-fano", "resumed-w2", iv.Spec.Seed, fpPoints(pts))

	mp := fpParse(t, fpDeckMap)
	pts, err = RunDeckCtx(ctx, mp, DeckRunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) <= 4*3 {
		t.Fatalf("map deck did not refine: %d points", len(pts))
	}
	put("deck/sset-map-refine", "execute-w2", mp.Spec.Seed, fpPoints(pts))

	e := jobs.NewEngine(jobs.EngineConfig{Workers: 2})
	defer e.Close()
	j, err := e.Submit(fpParse(t, fpDeckMap))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := j.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	pts, err = e.Result(j)
	if err != nil {
		t.Fatal(err)
	}
	put("deck/sset-map-refine", "engine-w2", mp.Spec.Seed, fpPoints(pts))

	// Solver paths.
	b, ok := bench.ByName("74LS153")
	if !ok {
		t.Fatal("74LS153 missing from the suite")
	}
	ex, err := bench.BuildWorkload(b, logicnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		mode     string
		adaptive bool
		tables   bool
	}{
		{"adaptive-exact", true, false},
		{"adaptive-tables", true, true},
		{"nonadaptive-exact", false, false},
		{"nonadaptive-tables", false, true},
	} {
		const seed = 1
		s, err := solver.New(ex.Circuit, solver.Options{
			Temp: bench.WorkloadTemp, Seed: seed, Adaptive: m.adaptive, RateTables: m.tables,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(4000, 0); err != nil {
			t.Fatal(err)
		}
		put("solver/74LS153", m.mode, seed, fpSim(s, ex.Circuit))
	}

	cc, err := fpParse(t, fpDeckChain).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	const chainSeed = 9
	s, err := solver.New(cc.Circuit, solver.Options{Temp: 2, Seed: chainSeed, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(20000, 0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Events != 20000 {
		t.Fatalf("chain ran %d events, want 20000", s.Stats().Events)
	}
	put("solver/chain3", "cinv-eps-1e-6", chainSeed, fpSim(s, cc.Circuit))

	// The T = 0 kernel on the same chain, biased above its blockade
	// threshold.
	cc0, err := fpParse(t, fpDeckChain).Compile(map[int]float64{1: 0.1, 5: -0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{true, false} {
		s, err := solver.New(cc0.Circuit, solver.Options{Seed: chainSeed, Adaptive: adaptive})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(20000, 0); err != nil {
			t.Fatal(err)
		}
		mode := "t0-nonadaptive"
		if adaptive {
			mode = "t0-adaptive"
		}
		put("solver/chain3", mode, chainSeed, fpSim(s, cc0.Circuit))
	}

	// A normal-state SET, one fresh build per seed.
	setCfg := SETConfig{R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF, Vs: 0.02, Vd: -0.02}

	// Cotunneling through the rate tables, at a bias where most events
	// cotunnel and a few tunnel in sequence.
	cotCfg := setCfg
	cotCfg.Vs, cotCfg.Vd = 0.015, -0.015
	for _, adaptive := range []bool{true, false} {
		const seed = 6
		c, _ := NewSET(cotCfg)
		s, err := solver.New(c, solver.Options{
			Temp: 5, Seed: seed, Adaptive: adaptive, Cotunneling: true, RateTables: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(5000, 0); err != nil {
			t.Fatal(err)
		}
		if s.Stats().CotunnelEvents == 0 {
			t.Fatal("cotunneling SET ran no cotunnel event")
		}
		mode := "cotunnel-tables-nonadaptive"
		if adaptive {
			mode = "cotunnel-tables-adaptive"
		}
		put("solver/set", mode, seed, fpSim(s, c))
	}
	for _, seed := range []uint64{3, 4, 5} {
		c, _ := NewSET(setCfg)
		s, err := solver.New(c, solver.Options{Temp: 5, Seed: seed, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(5000, 0); err != nil {
			t.Fatal(err)
		}
		put("solver/set", "adaptive", seed, fpSim(s, c))
	}

	// A session: one build, run, then Reset onto a new seed and bias.
	c, nd := NewSET(setCfg)
	s, err = solver.New(c, solver.Options{Temp: 5, Seed: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(5000, 0); err != nil {
		t.Fatal(err)
	}
	const resetSeed = 2
	if err := s.Reset(resetSeed, map[int]float64{nd.Source: 0.03, nd.Drain: -0.03}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(5000, 0); err != nil {
		t.Fatal(err)
	}
	put("solver/set", "reset-session", resetSeed, fpSim(s, c))
	return out
}

func TestTrajectoryFingerprints(t *testing.T) {
	got := fingerprints(t)
	arch := runtime.GOARCH

	// The golden file: "GOARCH workload mode seed=N sha256" per line.
	want := map[string]string{}
	var other []string // lines of other architectures, kept verbatim
	if f, err := os.Open(fingerprintFile); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			fs := strings.Fields(line)
			if len(fs) != 5 || strings.HasPrefix(line, "#") {
				continue
			}
			if fs[0] != arch {
				other = append(other, line)
				continue
			}
			want[strings.Join(fs[1:4], " ")] = fs[4]
		}
		f.Close()
	} else if !*updateFingerprints {
		t.Fatalf("%v (run with -update to record fingerprints)", err)
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var moved []string
	for _, k := range keys {
		if want[k] != got[k] {
			moved = append(moved, fmt.Sprintf("%s %s: %s -> %s", arch, k, orNone(want[k]), got[k]))
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			moved = append(moved, fmt.Sprintf("%s %s: %s -> (gone)", arch, k, want[k]))
		}
	}

	if !*updateFingerprints {
		if len(want) == 0 {
			t.Skipf("no fingerprints recorded for GOARCH=%s; run with -update to record them", arch)
		}
		for _, m := range moved {
			t.Errorf("trajectory moved: %s", m)
		}
		if len(moved) > 0 {
			t.Log("if the move is intended, rerun with -update and explain each moved line")
		}
		return
	}

	var sb strings.Builder
	sb.WriteString("# Trajectory fingerprints: GOARCH workload mode seed sha256.\n")
	sb.WriteString("# Regenerate with: go test -run TestTrajectoryFingerprints -update .\n")
	lines := append([]string(nil), other...)
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("%s %s %s", arch, k, got[k]))
	}
	sort.Strings(lines)
	for _, l := range lines {
		sb.WriteString(l + "\n")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fingerprintFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, m := range moved {
		fmt.Println("moved:", m)
	}
	if len(moved) == 0 {
		fmt.Println("no fingerprint moved")
	}
}

func orNone(s string) string {
	if s == "" {
		return "(new)"
	}
	return s
}
