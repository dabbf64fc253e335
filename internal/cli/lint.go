package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
	"cpplookup/internal/lint"
)

// chglintVersion is the tool version stamped into SARIF output.
const chglintVersion = "0.1.0"

// LintConfig configures a chglint run.
type LintConfig struct {
	// Format selects the output writer: "text" (default), "json", or
	// "sarif".
	Format string
	// Rules restricts the hierarchy rules; nil enables all.
	Rules []string
	// FailOn is the severity threshold for the failure count: "error"
	// (default), "warning", "info", or "never".
	FailOn string
	// Workers bounds lint parallelism; 0 means GOMAXPROCS.
	Workers int
	// Semantics restricts the resolution backends the cross-semantics
	// rules consult (see lint.Options.Semantics); the snapshot is
	// built to serve the listed backends so their tables share the
	// lint run's payload pool. nil means all.
	Semantics []core.SemanticsID
	// Baseline names a fingerprint file (diag.WriteBaseline format):
	// findings it lists are suppressed from the output and excluded
	// from the failure count, so CI fails only on new findings.
	Baseline string
	// WriteBaseline names a file to write the run's findings to as a
	// baseline. The findings are still printed, but the failure count
	// is forced to zero — adopting a baseline is an explicitly clean
	// starting point.
	WriteBaseline string
}

// RunLint lints every input — C++ sources (.cpp, .cc, .cxx, .hpp, .h),
// encoded hierarchies (.json from chg.WriteJSON, .chg/.bin in chg's
// binary form from chg.MarshalBinary, the bytes a snapshot image's
// graph section holds; both keep every class and member id), or
// directories of those — writes the merged
// diagnostics to w in the configured format, and returns how many
// findings reach the FailOn threshold.
//
// For a C++ source the frontend's own findings (all errors) are
// reported alongside the hierarchy rules, and the unit supplies source
// positions for both.
func RunLint(w io.Writer, inputs []string, cfg LintConfig) (int, error) {
	files, err := expandInputs(inputs)
	if err != nil {
		return 0, err
	}
	if len(files) == 0 {
		return 0, fmt.Errorf("chglint: no lintable files in %s", strings.Join(inputs, ", "))
	}

	var all []diag.Diagnostic
	for _, f := range files {
		ds, err := lintFile(f, cfg)
		if err != nil {
			return 0, err
		}
		all = append(all, ds...)
	}
	diag.Sort(all)

	suppressed := 0
	if cfg.Baseline != "" {
		base, err := readBaselineFile(cfg.Baseline)
		if err != nil {
			return 0, err
		}
		var known []diag.Diagnostic
		all, known = base.Apply(all)
		suppressed = len(known)
	}

	switch cfg.Format {
	case "", "text":
		if err = diag.WriteText(w, all); err == nil && suppressed > 0 {
			_, err = fmt.Fprintf(w, "%d finding(s) suppressed by baseline %s\n", suppressed, cfg.Baseline)
		}
	case "json":
		err = diag.WriteJSON(w, all)
	case "sarif":
		err = diag.WriteSARIF(w, all, lintTool())
	default:
		return 0, fmt.Errorf("chglint: unknown format %q (want text, json, or sarif)", cfg.Format)
	}
	if err != nil {
		return 0, err
	}

	if cfg.WriteBaseline != "" {
		if err := writeBaselineFile(cfg.WriteBaseline, all); err != nil {
			return 0, err
		}
		return 0, nil
	}
	if cfg.FailOn == "never" {
		return 0, nil
	}
	min := diag.Error
	if cfg.FailOn != "" {
		var ok bool
		if min, ok = diag.ParseSeverity(cfg.FailOn); !ok {
			return 0, fmt.Errorf("chglint: unknown severity %q (want error, warning, info, or never)", cfg.FailOn)
		}
	}
	return diag.CountAtLeast(all, min), nil
}

// readBaselineFile loads a -baseline fingerprint file.
func readBaselineFile(path string) (diag.Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("chglint: %w", err)
	}
	defer f.Close()
	base, err := diag.ReadBaseline(f)
	if err != nil {
		return nil, fmt.Errorf("chglint: %s: %w", path, err)
	}
	return base, nil
}

// writeBaselineFile writes the run's findings as a -write-baseline
// file. When a baseline was also read, the surviving (fresh) findings
// are what lands in the file on top of nothing — callers wanting to
// extend an old baseline should regenerate without -baseline.
func writeBaselineFile(path string, ds []diag.Diagnostic) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("chglint: %w", err)
	}
	if err := diag.WriteBaseline(f, ds); err != nil {
		f.Close()
		return fmt.Errorf("chglint: %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("chglint: %s: %w", path, err)
	}
	return nil
}

// lintTool describes chglint for SARIF output: every rule the run can
// emit — the hierarchy rules and the frontend's — with its one-line
// description.
func lintTool() diag.Tool {
	rules := lint.Descriptions()
	for id, doc := range sema.DiagDescriptions() {
		rules[id] = doc
	}
	return diag.Tool{
		Name:             "chglint",
		Version:          chglintVersion,
		RuleDescriptions: rules,
	}
}

// expandInputs resolves the input arguments to a sorted list of
// lintable files: directories contribute their immediate lintable
// children, explicit files are taken as-is.
func expandInputs(inputs []string) ([]string, error) {
	var files []string
	for _, in := range inputs {
		fi, err := os.Stat(in)
		if err != nil {
			return nil, fmt.Errorf("chglint: %w", err)
		}
		if !fi.IsDir() {
			files = append(files, in)
			continue
		}
		entries, err := os.ReadDir(in)
		if err != nil {
			return nil, fmt.Errorf("chglint: %w", err)
		}
		for _, e := range entries {
			p := filepath.Join(in, e.Name())
			if e.IsDir() {
				sub, err := expandInputs([]string{p})
				if err != nil {
					return nil, err
				}
				files = append(files, sub...)
				continue
			}
			if lintable(p) {
				files = append(files, p)
			}
		}
	}
	sort.Strings(files)
	return files, nil
}

func lintable(path string) bool {
	switch filepath.Ext(path) {
	case ".cpp", ".cc", ".cxx", ".hpp", ".h", ".json", ".chg", ".bin":
		return true
	}
	return false
}

// lintFile loads one input into a hierarchy and runs the linter over
// it. C++ sources go through the frontend, contributing its error
// diagnostics and source positions; encoded hierarchies are linted
// positionless.
func lintFile(path string, cfg LintConfig) ([]diag.Diagnostic, error) {
	opts := lint.Options{Rules: cfg.Rules, File: path, Workers: cfg.Workers, Semantics: cfg.Semantics}
	var g *chg.Graph
	var ds []diag.Diagnostic

	switch ext := filepath.Ext(path); ext {
	case ".cpp", ".cc", ".cxx", ".hpp", ".h":
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("chglint: %w", err)
		}
		unit, err := sema.AnalyzeSource(string(src))
		if err != nil {
			return nil, fmt.Errorf("chglint: %s: %w", path, err)
		}
		ds = unit.Diagnostics(path)
		g = unit.Graph
		opts.Source = unit
	case ".json":
		r, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("chglint: %w", err)
		}
		defer r.Close()
		if g, err = chg.ReadJSON(r); err != nil {
			return nil, fmt.Errorf("chglint: %s: %w", path, err)
		}
	case ".chg", ".bin":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("chglint: %w", err)
		}
		if g, err = chg.UnmarshalBinary(data); err != nil {
			return nil, fmt.Errorf("chglint: %s: %w", path, err)
		}
	default:
		return nil, fmt.Errorf("chglint: %s: unsupported input type %q", path, ext)
	}

	snapOpts := []core.Option{core.WithStaticRule(), core.WithTrackPaths()}
	if len(cfg.Semantics) > 0 {
		snapOpts = append(snapOpts, core.WithSemantics(cfg.Semantics...))
	}
	snap := engine.NewSnapshot(g, snapOpts...)
	ld, err := lint.Run(snap, opts)
	if err != nil {
		return nil, err
	}
	return append(ds, ld...), nil
}
