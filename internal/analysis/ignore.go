package analysis

import (
	"go/ast"
	"go/token"
	"sort"
)

// The ignore directive grammar (also documented in DESIGN.md §9):
//
//	//hetvet:ignore <check-name>[,<check-name>...] <reason>
//
// The check list names the checks to suppress ("all" suppresses every
// check). The reason is mandatory — an annotation that does not say why
// the invariant is waived is worse than none, so a directive without a
// reason is reported under the pseudo-check "directive". A directive
// suppresses findings on its own line; when it stands alone on a line
// it also suppresses the next statement or declaration line, which is
// how multi-line constructs (a declaration, a locked region's first
// offending call) are annotated.
//
// Parsing (grammar, near-miss detection) lives in directive.go; this
// file maps well-formed ignore directives onto source lines and turns
// every malformed directive — any verb — into a diagnostic.

// ignoreSet records, per file and line, which checks are suppressed.
type ignoreSet map[string]map[int]map[string]bool

// suppressed reports whether d is covered by a directive.
func (s ignoreSet) suppressed(d Diagnostic) bool {
	lines := s[d.File]
	if lines == nil {
		return false
	}
	checks := lines[d.Line]
	if checks == nil {
		return false
	}
	return checks["all"] || checks[d.Check]
}

// collectIgnores scans a package's comments for hetvet directives. It
// returns the suppression set and a list of diagnostics for malformed
// directives of any verb (near-miss spellings, unknown verbs, missing
// reasons, unknown check names).
func collectIgnores(pkg *Package, valid map[string]bool) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var bad []Diagnostic
	for _, file := range pkg.Files {
		// Start lines of every statement and declaration, used to map a
		// standalone directive to the construct it annotates.
		startLines := stmtStartLines(pkg.Fset, file)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d, attempted, problems := parseDirective(c.Text)
				if !attempted {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if len(problems) == 0 {
					for _, n := range d.Names {
						if n != "all" && !valid[n] {
							problems = append(problems, "hetvet:ignore names unknown check "+quoteName(n))
						}
					}
				}
				if len(problems) > 0 {
					for _, p := range problems {
						bad = append(bad, Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Check: "directive", Message: p})
					}
					continue
				}
				addIgnore(set, pos.Filename, pos.Line, d.Names)
				// A directive alone on its line (or inside a doc comment)
				// annotates the next statement or declaration.
				if standalone(startLines, pos.Line) {
					if next, found := nextStartLine(startLines, pos.Line); found {
						addIgnore(set, pos.Filename, next, d.Names)
					}
				}
			}
		}
	}
	return set, bad
}

// quoteName quotes a check name for a message.
func quoteName(s string) string { return "\"" + s + "\"" }

// standalone reports whether no statement or declaration starts on the
// directive's line, i.e. the directive is not an end-of-line comment.
func standalone(lines []int, line int) bool {
	i := sort.SearchInts(lines, line)
	return i >= len(lines) || lines[i] != line
}

// addIgnore records the names at file:line.
func addIgnore(set ignoreSet, file string, line int, names []string) {
	lines := set[file]
	if lines == nil {
		lines = map[int]map[string]bool{}
		set[file] = lines
	}
	checks := lines[line]
	if checks == nil {
		checks = map[string]bool{}
		lines[line] = checks
	}
	for _, n := range names {
		checks[n] = true
	}
}

// stmtStartLines returns the sorted start lines of every statement and
// declaration in the file.
func stmtStartLines(fset *token.FileSet, file *ast.File) []int {
	seen := map[int]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl, *ast.Field:
			seen[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	lines := make([]int, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	return lines
}

// nextStartLine returns the smallest start line strictly after line.
func nextStartLine(lines []int, line int) (int, bool) {
	i := sort.SearchInts(lines, line+1)
	if i < len(lines) {
		return lines[i], true
	}
	return 0, false
}
