// Command hetvet runs the project's static-analysis suite: two
// checkers enforcing the serving stack's locking and tracing
// conventions, lockio and tracectx (see internal/analysis and
// DESIGN.md §9).
//
// Usage:
//
//	hetvet [-list] [-checks=name,name] [packages]
//
// Packages default to ./... and are resolved against the enclosing
// module. -checks selects a subset of the suite by name (-list prints
// the names); an unknown name is a usage error. Exit status: 0 when
// clean, 1 when findings were reported, 2 on usage or load errors.
// Each finding is one line, "file:line: [check] message".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hetsched/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hetvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the checks and exit")
	checks := flags.String("checks", "", "comma-separated check names to run (default: all)")
	flags.Usage = func() {
		fmt.Fprintln(stderr, "usage: hetvet [-list] [-checks=name,name] [packages]")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range analysis.DefaultCheckers() {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name(), c.Desc())
		}
		return 0
	}
	checkers, err := selectCheckers(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "hetvet:", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "hetvet:", err)
		return 2
	}
	root, modPath, err := analysis.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "hetvet:", err)
		return 2
	}
	loader := analysis.NewLoader(root, modPath)
	pkgs, err := loader.Load(flags.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "hetvet:", err)
		return 2
	}
	diags := analysis.Run(pkgs, checkers, root)
	if err := analysis.WriteText(stdout, diags); err != nil {
		fmt.Fprintln(stderr, "hetvet:", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectCheckers resolves a comma-separated -checks spec against the
// default suite ("" selects everything). An unknown name is an error
// that lists the valid names, so a typo cannot silently run nothing.
func selectCheckers(spec string) ([]analysis.Checker, error) {
	all := analysis.DefaultCheckers()
	if spec == "" {
		return all, nil
	}
	byName := map[string]analysis.Checker{}
	names := make([]string, 0, len(all))
	for _, c := range all {
		byName[c.Name()] = c
		names = append(names, c.Name())
	}
	var out []analysis.Checker
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (valid: %s)", name, strings.Join(names, ", "))
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, c)
	}
	return out, nil
}
