// Command benchgen lists the paper's 15 logic benchmarks and can emit
// any of them as a gate-level netlist for inspection or external use.
//
// Usage:
//
//	benchgen            # table of all benchmarks
//	benchgen c432       # print the c432 gate netlist
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"semsim"
)

func main() {
	if len(os.Args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgen [name]")
		os.Exit(2)
	}
	name := ""
	if len(os.Args) == 2 {
		name = os.Args[1]
	}
	if err := write(os.Stdout, name); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

// write prints the gate netlist of benchmark name, or the table of all
// benchmarks when name is empty, to out through one buffer, and returns
// the first error.
func write(out io.Writer, name string) error {
	w := bufio.NewWriter(out)
	if name == "" {
		table(w)
	} else {
		b, ok := semsim.BenchmarkByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		emit(w, b)
	}
	return w.Flush()
}

func table(w io.Writer) {
	fmt.Fprintf(w, "%-18s %10s %8s %8s %8s\n", "benchmark", "junctions", "SETs", "gates", "inputs")
	for _, b := range semsim.Benchmarks() {
		fmt.Fprintf(w, "%-18s %10d %8d %8d %8d\n",
			b.Name, b.Netlist.NumJunctions(), b.Netlist.NumSETs(),
			len(b.Netlist.Gates), len(b.Netlist.Inputs))
	}
}

func emit(w io.Writer, b semsim.Benchmark) {
	fmt.Fprintf(w, "name %s\n", b.Name)
	fmt.Fprint(w, "input")
	for _, in := range b.Netlist.Inputs {
		fmt.Fprintf(w, " %s", in)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "output")
	for _, out := range b.Netlist.Outputs {
		fmt.Fprintf(w, " %s", out)
	}
	fmt.Fprintln(w)
	for _, g := range b.Netlist.Gates {
		fmt.Fprintf(w, "%s = %s", g.Out, g.Kind)
		for _, in := range g.In {
			fmt.Fprintf(w, " %s", in)
		}
		fmt.Fprintln(w)
	}
}
