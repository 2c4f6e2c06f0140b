package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden digests in testdata")

// TestGoldenSearchSummaries pins the summary JSON of two local searches
// to sha256 digests: the command's small-scale default (400.perlbench,
// with the held-out sampling baseline), and a 470.lbm search on an
// 8,000-instruction budget, whose short trace is the regime the replay
// engines are most tempted to specialize for.
func TestGoldenSearchSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two searches")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"small-default", nil},
		{"470.lbm-8000", []string{"-bench", "470.lbm", "-population", "32", "-generations", "40", "-budget", "8000", "-baseline", "0"}},
	}
	var pinned strings.Builder
	for _, c := range cases {
		out := filepath.Join(t.TempDir(), "summary.json")
		var stderr bytes.Buffer
		if code := run(append(c.args, "-json", out), io.Discard, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", c.name, code, stderr.String())
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		pinned.WriteString(hex.EncodeToString(sum[:]) + "  " + c.name + "\n")
	}
	path := filepath.Join("testdata", "search_summaries.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(pinned.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record the digests)", err)
	}
	if got := pinned.String(); got != string(want) {
		t.Errorf("search summary digests moved:\ngot\n%swant\n%s", got, want)
	}
}
