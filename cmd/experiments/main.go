// Command experiments regenerates every experiment table recorded in
// EXPERIMENTS.md (the paper's figures E1–E6, the measured claims and
// extensions E7–E20, and the ablations A1–A4).
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E8    # run one experiment
//	experiments -list      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"cpplookup/internal/harness"
)

func main() {
	run := flag.String("run", "", "run a single experiment by id (e.g. E8)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	if *run != "" {
		e, ok := harness.Find(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", *run)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := harness.RunAll(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
