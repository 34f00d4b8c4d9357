package eyeball

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResultsManifest checks the committed results/ against
// results/MANIFEST, which eyeballexp -out writes beside its artifacts:
// the regenerating command on the first line, then one "sha256  file"
// line per artifact. Every listed file must hash to its line, and every
// file in results/ except README.md (hand-written) must be listed. CI
// reruns the command and diffs the whole directory, MANIFEST included;
// this is the millisecond check that catches an artifact edited, added
// or dropped without regenerating.
func TestResultsManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("results", "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if want := "# eyeballexp -seed 42 -out results"; lines[0] != want {
		t.Fatalf("MANIFEST command = %q, want %q", lines[0], want)
	}
	listed := map[string]bool{}
	for _, line := range lines[1:] {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed MANIFEST line %q", line)
		}
		body, err := os.ReadFile(filepath.Join("results", name))
		if err != nil {
			t.Fatal(err)
		}
		got := sha256.Sum256(body)
		if hex.EncodeToString(got[:]) != sum {
			t.Errorf("results/%s: sha256 %x, MANIFEST says %s", name, got, sum)
		}
		listed[name] = true
	}
	entries, err := os.ReadDir("results")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "README.md" && name != "MANIFEST" && !listed[name] {
			t.Errorf("results/%s is not in MANIFEST", name)
		}
	}
}
