package analysis

import (
	"strings"
)

// hetvet source directives. One verb lives in the //hetvet: namespace:
//
//	//hetvet:ignore <check-name>[,<check-name>...] <reason>
//
// It waives named checks (see ignore.go). The reason is mandatory, so
// the waiver itself documents the exception.
//
// Directive parsing is strict and loud: a malformed directive — a
// near-miss spelling ("// hetvet:ignore" with a space, a /* block */
// form), an unknown verb, a missing reason, an unknown check name — is
// reported under the pseudo-check "directive" instead of being dropped,
// because a directive that silently does nothing is a waiver the reader
// believes in and the tool never honors. FuzzParseDirective pins the
// parser against panics and grammar drift.

// verbIgnore is the only directive verb.
const verbIgnore = "ignore"

// directive is one parsed //hetvet: comment.
type directive struct {
	Verb   string   // always ignore once parsed without problems
	Names  []string // the checks to suppress
	Reason string   // the mandatory justification
}

// canonicalPrefix is the only accepted spelling: no space after //,
// lower case, colon immediately after hetvet.
const canonicalPrefix = "//hetvet:"

// parseDirective parses one comment's raw text (including the // or
// /* markers). It returns:
//
//	attempted — the comment is (or tries to be) a hetvet directive;
//	d         — the parsed directive, valid only when problems is empty;
//	problems  — human-readable reasons the directive is malformed.
//
// Comments that merely mention hetvet in prose, and doc comments
// quoting a directive in an indented example ("//\t//hetvet:ignore …"),
// are not attempted directives. Check-name validity is the caller's
// concern (the valid set depends on the configured checkers); the
// parser only enforces the grammar.
func parseDirective(text string) (d directive, attempted bool, problems []string) {
	if strings.HasPrefix(text, canonicalPrefix) {
		return parseCanonical(text[len(canonicalPrefix):])
	}
	// Near-miss detection: strip the comment markers; if what's left
	// begins (after whitespace) with "hetvet:", someone meant to write
	// a directive and got the spelling wrong.
	content := text
	block := false
	switch {
	case strings.HasPrefix(content, "//"):
		content = content[2:]
	case strings.HasPrefix(content, "/*"):
		content = strings.TrimSuffix(content[2:], "*/")
		block = true
	}
	trimmed := strings.TrimSpace(content)
	lower := strings.ToLower(trimmed)
	if !strings.HasPrefix(lower, "hetvet:") {
		return directive{}, false, nil
	}
	switch {
	case block:
		problems = append(problems, "hetvet directives must be line comments (//hetvet:...), not block comments")
	case strings.HasPrefix(trimmed, "hetvet:"):
		problems = append(problems, "hetvet directives must not have a space after // (write //hetvet:...)")
	default:
		problems = append(problems, "hetvet directives are lower-case (write //hetvet:...)")
	}
	return directive{}, true, problems
}

// parseCanonical parses the text after the //hetvet: prefix.
func parseCanonical(rest string) (d directive, attempted bool, problems []string) {
	attempted = true
	// The verb runs to the first whitespace.
	verb := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		verb, rest = rest[:i], strings.TrimLeft(rest[i:], " \t")
	} else {
		rest = ""
	}
	d.Verb = verb
	fields := strings.Fields(rest)
	switch verb {
	case verbIgnore:
		if len(fields) == 0 {
			problems = append(problems, "hetvet:ignore needs a check name and a reason")
			return d, attempted, problems
		}
		d.Names = strings.Split(fields[0], ",")
		for _, n := range d.Names {
			if n == "" {
				problems = append(problems, "hetvet:ignore has an empty check name")
			}
		}
		if len(fields) < 2 {
			problems = append(problems, "hetvet:ignore needs a reason after the check name")
		} else {
			d.Reason = strings.Join(fields[1:], " ")
		}
	case "":
		problems = append(problems, "hetvet directive is missing a verb (ignore)")
	default:
		problems = append(problems, "unknown hetvet directive "+quoteName(verb)+" (valid: ignore)")
	}
	return d, attempted, problems
}
