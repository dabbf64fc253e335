// Command cpplookup is the front door of the library: it parses a
// C++-subset translation unit, resolves every member access with the
// paper's lookup algorithm, and reports resolutions and diagnostics
// the way a compiler front end would.
//
// Usage:
//
//	cpplookup file.cpp               # analyze; print resolutions + diagnostics
//	cpplookup -table file.cpp        # print the whole lookup table
//	cpplookup -lookup E::m file.cpp  # one query
//	cpplookup -vtables file.cpp      # print virtual function tables
//	cpplookup -slice E::m file.cpp   # print the sliced hierarchy as source
//	cpplookup -ambiguities file.cpp  # list every ambiguous table entry
//
// The -semantics flag selects the resolution backends -lookup and
// -table answer under: a comma-separated subset of dominance (the
// paper's Figure 8 algorithm, the default), c3 (Python/Dylan C3
// linearization), and gxx (the g++ 2.7.2.1 breadth-first baseline).
// Listing several prints each backend's answer.
//
// Snapshot images persist a fully warmed lookup cache between runs:
//
//	cpplookup -semantics dominance,c3,gxx -save-image lib.img lib.cpp
//	cpplookup -load-image lib.img -lookup E::m
//	cpplookup -load-image lib.img -table
//
// -save-image analyzes the unit, fills every cell of every requested
// backend, and writes the snapshot as a relocatable image.
// -load-image serves queries from the memory-mapped file, with no
// source argument: -lookup reads the mapped cells, with no per-cell
// deserialization, while -table and -ambiguities tabulate the mapped
// hierarchy again, as they would from source; -semantics then selects
// among the backends baked into the image.
//
// The file may be "-" for stdin. Exit status 1 if any diagnostics
// were produced.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cpplookup/internal/cli"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/engine"
	"cpplookup/internal/image"
	"cpplookup/internal/semantics"
)

func main() {
	table := flag.Bool("table", false, "print the full lookup table")
	lookup := flag.String("lookup", "", "resolve a single qualified name Class::member")
	vtables := flag.Bool("vtables", false, "print virtual function tables")
	slice := flag.String("slice", "", "comma-separated Class::member criteria; print the sliced hierarchy")
	ambiguities := flag.Bool("ambiguities", false, "list every ambiguous (class, member) pair")
	layoutClass := flag.String("layout", "", "print the complete-object layout of this class")
	run := flag.String("run", "", "execute this function with the interpreter and dump global objects")
	sems := flag.String("semantics", "", "comma-separated resolution backends for -lookup/-table: dominance, c3, gxx (default dominance)")
	saveImage := flag.String("save-image", "", "warm every requested backend and write the snapshot image to this path")
	loadImage := flag.String("load-image", "", "serve queries from this memory-mapped snapshot image instead of analyzing a source file")
	flag.Parse()

	ids, err := semantics.ParseIDs(*sems)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
		os.Exit(2)
	}

	var snap *engine.Snapshot
	var unit *sema.Unit
	var src string
	clean := true
	if *loadImage != "" {
		// Image mode: the hierarchy, pool, and warm cells come off the
		// mapped file; there is no source file to analyze.
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: cpplookup -load-image file.img [-lookup C::m | -table | -ambiguities]")
			os.Exit(2)
		}
		im, err := image.OpenFile(*loadImage)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(1)
		}
		defer im.Close()
		snap = im.Snapshot()
		if len(ids) == 0 {
			ids = im.Meta().Backends
		}
		for _, id := range ids {
			if _, ok := snap.LookupSem(id, 0, 0); !ok && snap.Graph().NumClasses() > 0 {
				fmt.Fprintf(os.Stderr, "cpplookup: image %s does not serve backend %q (it has: %v)\n",
					*loadImage, id, im.Meta().Backends)
				os.Exit(2)
			}
		}
	} else {
		if len(ids) == 0 {
			ids = []core.SemanticsID{core.SemDominance}
		}
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: cpplookup [flags] file.cpp  (file may be -)")
			os.Exit(2)
		}
		src, err = readSource(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(2)
		}
		unit, clean, err = cli.Analyze(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(1)
		}
		// Every query command works against one published snapshot of the
		// unit's hierarchy (the same artifact a long-running server would
		// share among its request goroutines), built to serve every
		// backend the -semantics flag asked for.
		snap = cli.QuerySnapshotSem(unit.Graph, ids...)
	}

	if *saveImage != "" {
		snap.WarmAll()
		if err := image.WriteFile(*saveImage, snap); err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(1)
		}
		st, err := os.Stat(*saveImage)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(1)
		}
		g := snap.Graph()
		fmt.Printf("wrote %s: %d bytes, %d classes × %d members, backends %v\n",
			*saveImage, st.Size(), g.NumClasses(), g.NumMemberNames(), snap.Semantics())
		if !clean {
			cli.PrintDiags(os.Stderr, unit)
			os.Exit(1)
		}
		return
	}

	if unit == nil {
		// Image mode serves the cache-backed queries only; commands
		// that need the parsed translation unit have no source here.
		switch {
		case *vtables, *slice != "", *layoutClass != "", *run != "",
			*lookup == "" && !*table && !*ambiguities:
			fmt.Fprintln(os.Stderr, "cpplookup: -load-image serves -lookup, -table, and -ambiguities")
			os.Exit(2)
		}
	}

	switch {
	case *lookup != "":
		class, member, ok := cli.SplitQualified(*lookup)
		if !ok {
			fmt.Fprintf(os.Stderr, "cpplookup: -lookup wants Class::member, got %q\n", *lookup)
			os.Exit(2)
		}
		for _, id := range ids {
			cli.PrintLookupSem(os.Stdout, snap, id, class, member, len(ids) > 1)
		}
		return
	case *table:
		for _, id := range ids {
			if err := cli.PrintTableSem(os.Stdout, snap, id, len(ids) > 1); err != nil {
				fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
				os.Exit(1)
			}
		}
	case *vtables:
		if err := cli.PrintVTables(os.Stdout, unit.Graph); err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(1)
		}
	case *slice != "":
		if err := cli.PrintSlice(os.Stdout, unit.Graph, *slice); err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(1)
		}
	case *ambiguities:
		if n := cli.PrintAmbiguities(os.Stdout, snap); n > 0 {
			os.Exit(1)
		}
	case *layoutClass != "":
		if err := cli.PrintLayout(os.Stdout, unit.Graph, *layoutClass); err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(1)
		}
	case *run != "":
		if err := cli.RunProgram(os.Stdout, src, *run); err != nil {
			fmt.Fprintf(os.Stderr, "cpplookup: %v\n", err)
			os.Exit(1)
		}
	default:
		cli.PrintResolutions(os.Stdout, unit)
	}
	if !clean {
		cli.PrintDiags(os.Stderr, unit)
		os.Exit(1)
	}
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
