package analysis

import (
	"strings"
	"testing"
)

// TestParseDirective locks the grammar: one case per verb, per error,
// and per deliberate non-directive.
func TestParseDirective(t *testing.T) {
	cases := []struct {
		text      string
		attempted bool
		verb      string
		names     string // comma-joined
		reason    string
		problem   string // substring of the first problem, "" for valid
	}{
		{"//hetvet:ignore errdiscard write is best effort", true, "ignore", "errdiscard", "write is best effort", ""},
		{"//hetvet:ignore lockio,errdiscard both waived here", true, "ignore", "lockio,errdiscard", "both waived here", ""},
		{"//hetvet:ignore errdiscard", true, "ignore", "errdiscard", "", "needs a reason"},
		{"//hetvet:ignore", true, "ignore", "", "", "needs a check name and a reason"},
		{"//hetvet:ignore ,errdiscard why", true, "ignore", ",errdiscard", "why", "empty check name"},
		{"//hetvet:ignores errdiscard x", true, "ignores", "", "", "unknown hetvet directive"},
		{"//hetvet:", true, "", "", "", "missing a verb"},
		{"//hetvet:frobnicate x", true, "frobnicate", "", "", "unknown hetvet directive"},
		{"// hetvet:ignore errdiscard x", true, "", "", "", "must not have a space"},
		{"/*hetvet:ignore errdiscard x*/", true, "", "", "", "must be line comments"},
		{"//HETVET:ignore errdiscard x", true, "", "", "", "lower-case"},
		{"// plain prose about hetvet directives", false, "", "", "", ""},
		{"//\t//hetvet:ignore errdiscard quoted in a doc example", false, "", "", "", ""},
		{"// just a comment", false, "", "", "", ""},
	}
	for _, c := range cases {
		d, attempted, problems := parseDirective(c.text)
		if attempted != c.attempted {
			t.Errorf("%q: attempted = %v, want %v", c.text, attempted, c.attempted)
			continue
		}
		if c.problem == "" && len(problems) > 0 {
			t.Errorf("%q: unexpected problems %q", c.text, problems)
			continue
		}
		if c.problem != "" {
			if len(problems) == 0 || !strings.Contains(problems[0], c.problem) {
				t.Errorf("%q: problems = %q, want one containing %q", c.text, problems, c.problem)
			}
			continue
		}
		if d.Verb != c.verb || strings.Join(d.Names, ",") != c.names || d.Reason != c.reason {
			t.Errorf("%q: parsed {%q %q %q}, want {%q %q %q}",
				c.text, d.Verb, strings.Join(d.Names, ","), d.Reason, c.verb, c.names, c.reason)
		}
	}
}

// FuzzParseDirective pins the parser against panics and against the
// two grammar invariants every caller relies on: a valid directive is
// always attempted, and a problem is only ever reported on an
// attempted directive.
func FuzzParseDirective(f *testing.F) {
	seeds := []string{
		"//hetvet:ignore errdiscard reason",
		"//hetvet:ignore a,b,c reason with words",
		"//hetvet:frobnicate",
		"//hetvet:ignores errdiscard why",
		"//hetvet:",
		"//hetvet:ignore",
		"// hetvet:ignore x y",
		"/*hetvet:ignore x y*/",
		"//HETVET:IGNORE X Y",
		"// prose",
		"//\t//hetvet:ignore quoted example",
		"//hetvet:ignore \t  spaced,\t x",
		"//hetvet:\x00ignore",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, attempted, problems := parseDirective(text)
		if len(problems) > 0 && !attempted {
			t.Fatalf("%q: problems %q reported without attempted", text, problems)
		}
		if !attempted && (d.Verb != "" || len(d.Names) > 0 || d.Reason != "") {
			t.Fatalf("%q: non-attempted parse returned directive %+v", text, d)
		}
		if attempted && len(problems) == 0 && d.Verb == verbIgnore {
			if len(d.Names) == 0 || d.Reason == "" {
				t.Fatalf("%q: valid ignore directive missing names or reason: %+v", text, d)
			}
		}
	})
}
