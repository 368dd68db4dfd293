// Command vetstore runs the repo's custom invariant analyzers (see
// internal/analysis): poolsafe, lockdiscipline, seededdet and ctxflow.
//
// Two modes:
//
//	go vet -vettool=$(pwd)/bin/vetstore ./...   # driven by cmd/go
//	vetstore [packages]                         # standalone, default ./...
//
// In both modes diagnostics print as file:line:col: message [analyzer]
// and a non-zero exit reports findings. `make lint` builds the binary and
// runs the go vet form.
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
	"repro/internal/analysis/unit"
)

func main() {
	args := os.Args[1:]
	if unit.IsVettoolInvocation(args) {
		unit.Main(suite.Analyzers, args) // does not return
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := Run(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetstore:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Position, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// Run loads the packages matched by patterns relative to dir and applies
// the whole suite, returning every surviving diagnostic.
func Run(dir string, patterns []string) ([]analysis.Diagnostic, error) {
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var out []analysis.Diagnostic
	for _, p := range pkgs {
		diags, err := analysis.RunPackage(p.Fset, p.Files, p.Types, p.Info, p.ImportPath, suite.Analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	return out, nil
}
