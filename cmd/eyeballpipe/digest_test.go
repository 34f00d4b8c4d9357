package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// smallSnapDigest pins the SHA-256 of the eyeballas-snap/1 artifact of
// `eyeballpipe -small -seed 42 -snapshot`. A change that moves it
// changes the dataset or its encoding, and has to update this pin (and
// say why) on purpose.
const smallSnapDigest = "092e85de65138f71729532a3454e47fd962761b2af4cb1c0ad2a68581c8761a7"

func snapDigest(t *testing.T, extra ...string) string {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "d.snap")
	args := append([]string{"-small", "-seed", "42", "-quiet", "-snapshot", snap}, extra...)
	if err := run(context.Background(), args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestSmallSnapshotDigest pins the small-world artifact's bytes, bare
// and with every observability output on: tracing and metrics are side
// channels and must not move a byte.
func TestSmallSnapshotDigest(t *testing.T) {
	if got := snapDigest(t); got != smallSnapDigest {
		t.Fatalf("-small -seed 42 snapshot digest = %s, want %s", got, smallSnapDigest)
	}
	dir := t.TempDir()
	observed := snapDigest(t, "-trace", "-trace-out", filepath.Join(dir, "f.json"), "-metrics", filepath.Join(dir, "m.json"))
	if observed != smallSnapDigest {
		t.Fatalf("snapshot digest with -trace -trace-out -metrics = %s, want %s", observed, smallSnapDigest)
	}
}
