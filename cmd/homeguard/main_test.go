package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"homeguard/internal/corpus"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := f()
	os.Stdout = orig
	w.Close()
	return <-out, ferr
}

func writeApp(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name+".groovy"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDirCountsAuditedApps pins the `homeguard audit <dir>` summary:
// a file that fails extraction is reported as skipped and is not counted
// among the audited apps.
func TestAuditDirCountsAuditedApps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ComfortTV", "ColdDefender"} {
		a, ok := corpus.Get(name)
		if !ok {
			t.Fatalf("corpus app %s missing", name)
		}
		writeApp(t, dir, name, a.Source)
	}
	writeApp(t, dir, "Broken", "def broken( {")

	out, err := captureStdout(t, func() error { return cmdAudit([]string{dir}) })
	if err != nil {
		t.Fatalf("audit: %v\n%s", err, out)
	}
	if !strings.Contains(out, "skip Broken: ") {
		t.Errorf("broken file not reported as skipped:\n%s", out)
	}
	if !strings.Contains(out, "\n2 apps, ") {
		t.Errorf("summary must count the 2 audited apps, not the 3 files:\n%s", out)
	}
	if !strings.Contains(out, "ComfortTV") || !strings.Contains(out, "ColdDefender") {
		t.Errorf("known ComfortTV×ColdDefender threats missing:\n%s", out)
	}
}

// TestAuditDirNothingExtracted fails the command when no file extracts.
func TestAuditDirNothingExtracted(t *testing.T) {
	dir := t.TempDir()
	writeApp(t, dir, "Broken", "def broken( {")
	out, err := captureStdout(t, func() error { return cmdAudit([]string{dir}) })
	if err == nil {
		t.Fatalf("audit of a directory with no extractable app succeeded:\n%s", out)
	}
}
