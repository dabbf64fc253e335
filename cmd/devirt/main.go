// Command devirt resolves virtual call sites against a hierarchy by
// class-hierarchy analysis: for each call site `Class::member` it
// reports the set of member definitions the call can reach — the
// declaring classes member lookup resolves to across Class's
// descendant cone — and whether the site is monomorphic (a direct
// call in disguise).
//
// Usage:
//
//	devirt -sites calls.txt lib.cpp        # resolve a call-site file against a source hierarchy
//	devirt -sites - lib.cpp                # call sites from stdin
//	devirt -load-image lib.img -sites calls.txt
//	devirt -sites calls.txt -v lib.cpp     # per-site resolutions, not just the summary
//
// The call-site file holds one qualified name per line ("C::m", blank
// lines and #-comments skipped); cmd/hiergen -callsites generates
// compiler-shaped streams. Sites are drained through one
// devirt.Resolver.ResolveBatch: deduplicated, sorted member-major, and
// each member's target sets computed bottom-up over the union of its
// sites' cones, one lookup per class. -semantics picks one resolution
// backend (default dominance). The summary reports monomorphic /
// polymorphic / unresolved site counts and the drain throughput.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/cli"
	"cpplookup/internal/devirt"
	"cpplookup/internal/engine"
	"cpplookup/internal/image"
	"cpplookup/internal/semantics"
)

func main() {
	sitesPath := flag.String("sites", "", "call-site file, one Class::member per line (- for stdin)")
	sem := flag.String("semantics", "dominance", "resolution backend: dominance, c3, or gxx")
	loadImage := flag.String("load-image", "", "serve from this snapshot image instead of analyzing a source file")
	verbose := flag.Bool("v", false, "print every site's resolution, not just the summary")
	flag.Parse()

	if *sitesPath == "" {
		fmt.Fprintln(os.Stderr, "usage: devirt -sites calls.txt [-semantics id] [-v] (file.cpp | -load-image lib.img)")
		os.Exit(2)
	}
	ids, err := semantics.ParseIDs(*sem)
	if err != nil {
		fail(err)
	}
	if len(ids) != 1 {
		fmt.Fprintln(os.Stderr, "devirt: -semantics wants exactly one backend")
		os.Exit(2)
	}
	id := ids[0]

	var snap *engine.Snapshot
	if *loadImage != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "devirt: -load-image replaces the source argument")
			os.Exit(2)
		}
		im, err := image.OpenFile(*loadImage)
		if err != nil {
			fail(err)
		}
		defer im.Close()
		snap = im.Snapshot()
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: devirt -sites calls.txt [-semantics id] [-v] (file.cpp | -load-image lib.img)")
			os.Exit(2)
		}
		src, err := readFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		unit, _, err := cli.Analyze(src)
		if err != nil {
			fail(err)
		}
		snap = cli.QuerySnapshotSem(unit.Graph, id)
	}

	g := snap.Graph()
	var rd io.Reader = os.Stdin
	if *sitesPath != "-" {
		f, err := os.Open(*sitesPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		rd = f
	}
	sites, lines, skipped, err := readSites(rd, g)
	if err != nil {
		fail(err)
	}

	r, err := devirt.New(snap, id)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	res := r.ResolveBatch(sites, nil)
	elapsed := time.Since(start)

	if *verbose {
		for i, rs := range res {
			fmt.Printf("%s: %s\n", lines[i], describe(g, rs))
		}
	}

	var mono, poly, unresolved int
	unique := map[devirt.Site]struct{}{}
	for i, rs := range res {
		unique[sites[i]] = struct{}{}
		switch {
		case len(rs.Targets) == 1:
			mono++
		case len(rs.Targets) > 1:
			poly++
		default:
			unresolved++
		}
	}
	fmt.Printf("%d sites (%d unique pairs, %d skipped lines), backend %s\n",
		len(sites), len(unique), skipped, id)
	if len(sites) > 0 {
		fmt.Printf("  monomorphic %d (%.1f%%)   polymorphic %d   no-target %d\n",
			mono, 100*float64(mono)/float64(len(sites)), poly, unresolved)
		fmt.Printf("  drained in %v (%.2fM sites/sec)\n",
			elapsed.Round(time.Microsecond), float64(len(sites))/elapsed.Seconds()/1e6)
	}
}

// readSites parses a call-site file into sites plus the original line
// per site (for -v). Lines naming unknown classes or members are
// counted as skipped, not fatal: a compiler's call-site dump may span
// more code than the hierarchy at hand. A line longer than 1 MiB is an
// error.
func readSites(rd io.Reader, g *chg.Graph) (sites []devirt.Site, lines []string, skipped int, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		class, member, ok := cli.SplitQualified(line)
		if !ok {
			skipped++
			continue
		}
		c, ok1 := g.ID(class)
		m, ok2 := g.MemberID(member)
		if !ok1 || !ok2 {
			skipped++
			continue
		}
		sites = append(sites, devirt.Site{Class: c, Member: m})
		lines = append(lines, line)
	}
	return sites, lines, skipped, sc.Err()
}

func describe(g *chg.Graph, r devirt.Resolution) string {
	switch len(r.Targets) {
	case 0:
		return fmt.Sprintf("no target (cone %d)", r.Cone)
	case 1:
		return fmt.Sprintf("monomorphic -> %s::%s (cone %d)",
			g.Name(r.Targets[0]), g.MemberName(r.Member), r.Cone)
	default:
		names := make([]string, len(r.Targets))
		for i, t := range r.Targets {
			names[i] = g.Name(t)
		}
		return fmt.Sprintf("polymorphic -> {%s}::%s (cone %d)",
			strings.Join(names, ", "), g.MemberName(r.Member), r.Cone)
	}
}

func readFile(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "devirt: %v\n", err)
	os.Exit(1)
}
