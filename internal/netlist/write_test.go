package netlist

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"semsim/internal/rng"
)

func TestFormatRoundTrip(t *testing.T) {
	src := `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 2e-6 1.5e-18
cap 3 4 3e-18
charge 4 0.65
vdc 1 0.02
vdc 2 -0.02
vac 3 0 0.001 1e8 0.5
temp 5
cotunnel
record 1 2
probe 4
jumps 1000 3
time 1e-6
sweep 2 0.02 0.001
symm 1
seed 42
adaptive 0.1
refresh 512
rate-tables
`
	d1, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.Format(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse of formatted deck: %v\n---\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(d1.Spec, d2.Spec) {
		t.Fatalf("spec changed across round trip:\n%+v\nvs\n%+v", d1.Spec, d2.Spec)
	}
	if !reflect.DeepEqual(d1.juncs[0], d2.juncs[0]) && d1.juncs[0].g != d2.juncs[0].g {
		t.Fatalf("junction changed across round trip")
	}
	if len(d1.juncs) != len(d2.juncs) || len(d1.caps) != len(d2.caps) {
		t.Fatal("element counts changed across round trip")
	}
	if d1.charges[4] != d2.charges[4] {
		t.Fatal("background charge changed across round trip")
	}
	// Compiled circuits must be electrically identical.
	c1, err := d1.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := d2.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Circuit.NumJunctions() != c2.Circuit.NumJunctions() ||
		c1.Circuit.NumIslands() != c2.Circuit.NumIslands() {
		t.Fatal("compiled circuits differ")
	}
}

func TestFormatMapRoundTrip(t *testing.T) {
	for _, refine := range []string{"", "refine 3\n", "refine 3 0.25\n"} {
		src := `
junc 1 1 3 1e-6 1e-18
vdc 1 0.01
vdc 2 0
cap 2 3 1e-18
temp 5
record 1
jumps 1000
map x 2 -0.08 0.08 17
map y 1 -0.05 0.05 9
` + refine
		d1, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d1.Format(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("re-parse of formatted map deck: %v\n---\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(d1.Spec.Map, d2.Spec.Map) {
			t.Fatalf("map spec changed across round trip (%q):\n%+v\nvs\n%+v", refine, d1.Spec.Map, d2.Spec.Map)
		}
	}
}

func TestFormatSuperAndPWL(t *testing.T) {
	src := `
junc 1 1 2 4.76e-6 110e-18
vdc 1 0.001
vpwl 2 0 0 1e-9 0.01 2e-9 0.01
temp 0.52
super 0.00021 1.4
record 1
jumps 100
`
	d1, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.Format(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n---\n%s", err, buf.String())
	}
	if d2.Spec.Super == nil || d2.Spec.Super.Tc != 1.4 {
		t.Fatal("super lost in round trip")
	}
	got := d2.sources[2].V(0.5e-9)
	if got != 0.005 {
		t.Fatalf("PWL midpoint after round trip = %g", got)
	}
}

func TestFormatRoundTripRandomDecks(t *testing.T) {
	// Property: any deck this generator produces survives
	// Format -> Parse with its spec and element counts intact.
	gen := func(seed uint64) string {
		r := rng.New(seed)
		var sb strings.Builder
		nIsl := 1 + r.Intn(3)
		nExt := 1 + r.Intn(3)
		// Externals are nodes 1..nExt, islands follow.
		jid := 1
		for i := 0; i < nIsl; i++ {
			isl := nExt + 1 + i
			lead := 1 + r.Intn(nExt)
			fmt.Fprintf(&sb, "junc %d %d %d %g %g\n", jid, lead, isl,
				1e-7+r.Float64()*1e-5, (0.5+r.Float64())*1e-18)
			jid++
			if r.Intn(2) == 0 {
				fmt.Fprintf(&sb, "cap %d %d %g\n", isl, 1+r.Intn(nExt), (1+r.Float64())*1e-18)
			}
			if r.Intn(3) == 0 {
				fmt.Fprintf(&sb, "charge %d %g\n", isl, r.Float64()-0.5)
			}
		}
		for n := 1; n <= nExt; n++ {
			switch r.Intn(3) {
			case 0:
				fmt.Fprintf(&sb, "vdc %d %g\n", n, r.Float64()*0.1-0.05)
			case 1:
				fmt.Fprintf(&sb, "vac %d %g %g %g %g\n", n, r.Float64()*0.01, r.Float64()*0.01, 1e8+r.Float64()*1e9, r.Float64())
			default:
				fmt.Fprintf(&sb, "vpwl %d 0 0 %g %g\n", n, 1e-9+r.Float64()*1e-8, r.Float64()*0.05)
			}
		}
		fmt.Fprintf(&sb, "temp %g\njumps %d %d\nseed %d\n",
			0.1+r.Float64()*10, 100+r.Intn(10000), 1+r.Intn(4), r.Uint64()%1e6)
		fmt.Fprintf(&sb, "record 1\n")
		if r.Intn(2) == 0 {
			fmt.Fprintf(&sb, "adaptive %g\nrefresh %d\n", 0.01+r.Float64()*0.2, 64+r.Intn(4096))
		}
		if r.Intn(3) == 0 {
			fmt.Fprintf(&sb, "rate-tables\n")
		}
		return sb.String()
	}
	for seed := uint64(0); seed < 60; seed++ {
		src := gen(seed)
		d1, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Fatalf("seed %d: generated deck invalid: %v\n%s", seed, err, src)
		}
		var buf bytes.Buffer
		if err := d1.Format(&buf); err != nil {
			t.Fatalf("seed %d: format: %v", seed, err)
		}
		d2, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: re-parse: %v\n%s", seed, err, buf.String())
		}
		if !reflect.DeepEqual(d1.Spec, d2.Spec) {
			t.Fatalf("seed %d: spec drift:\n%+v\nvs\n%+v", seed, d1.Spec, d2.Spec)
		}
		if len(d1.juncs) != len(d2.juncs) || len(d1.caps) != len(d2.caps) ||
			len(d1.charges) != len(d2.charges) || len(d1.sources) != len(d2.sources) {
			t.Fatalf("seed %d: element counts drifted", seed)
		}
	}
}

func TestFormatMinimalDeck(t *testing.T) {
	d, err := Parse(strings.NewReader("junc 1 0 1 1e-6 1e-18\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Format(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(&buf); err != nil {
		t.Fatalf("minimal deck round trip: %v", err)
	}
}
