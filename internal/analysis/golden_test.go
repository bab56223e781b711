package analysis

import (
	"bytes"
	"testing"
)

// TestDiagnosticString locks the canonical rendering.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/x/x.go", Line: 7, Col: 3, Check: "lockio", Message: "boom"}
	if got, want := d.String(), "internal/x/x.go:7: [lockio] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestGoldenOutput locks the text form over the golden fixture, byte
// for byte: file paths relative to the module root, sorted by
// position, one finding per line.
func TestGoldenOutput(t *testing.T) {
	root, pkgs := loadFixture(t, "golden")
	diags := Run(pkgs, DefaultCheckers(), root)

	const wantText = `internal/wire/g.go:21: [lockio] net connection Write while c.mu is held; never block a mutex on network I/O, sleeps, or channel operations
internal/wire/g.go:22: [lockio] net connection Close while c.mu is held; never block a mutex on network I/O, sleeps, or channel operations
`
	var text bytes.Buffer
	if err := WriteText(&text, diags); err != nil {
		t.Fatal(err)
	}
	if text.String() != wantText {
		t.Errorf("WriteText:\n got: %q\nwant: %q", text.String(), wantText)
	}
}
