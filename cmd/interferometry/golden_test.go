package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"interferometry/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden digests in testdata")

// TestGoldenExperiments pins the rendered output of every experiment at
// small scale, bar the "==== name (scale, elapsed) ====" header main
// prints around it, to a sha256 digest per experiment. The experiments
// share one context, as under -exp all, so cached campaigns are reused
// exactly as the command reuses them. Output is seeded and independent
// of the worker count, so the digests hold at any -cpu.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment at small scale")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	ctx := experiments.NewContext(experiments.Small)
	got := map[string]string{}
	for _, r := range runners() {
		res, err := r.run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = digest([]byte(res.String()))
	}
	checkDigests(t, "experiments.sha256", got)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigests compares got against testdata/name, a sha256sum-style
// file of "<digest>  <entry>" lines, or rewrites the file under -update.
func checkDigests(t *testing.T, name string, got map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		var b strings.Builder
		for _, k := range sortedKeys(got) {
			fmt.Fprintf(&b, "%s  %s\n", got[k], k)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readDigests(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record the digests)", err)
	}
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: pinned in %s but not rendered", k, path)
		} else if g != want[k] {
			t.Errorf("%s: output digest %s, pinned %s", k, g, want[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: rendered but not pinned in %s (run with -update)", k, path)
		}
	}
}

func readDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, entry, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[entry] = sum
	}
	return out, sc.Err()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
