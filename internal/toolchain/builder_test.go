package toolchain_test

import (
	"reflect"
	"sync"
	"testing"

	"interferometry/internal/progen"
	"interferometry/internal/testprog"
	"interferometry/internal/toolchain"
)

// TestBuilderMatchesBuildLayout verifies the shared-compile fast path: a
// Builder's executables must be bit-identical to per-layout BuildLayout
// for the same seeds, for default and non-default configs.
func TestBuilderMatchesBuildLayout(t *testing.T) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		t.Fatal("missing spec")
	}
	p := progen.MustGenerate(spec)
	configs := []struct {
		name string
		ccfg toolchain.CompileConfig
		lcfg toolchain.LinkConfig
	}{
		{"defaults", toolchain.CompileConfig{}, toolchain.LinkConfig{}},
		{"small-units-aligned", toolchain.CompileConfig{ProcsPerUnit: 3}, toolchain.LinkConfig{FetchAlign: 16}},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := toolchain.NewBuilder(p, tc.ccfg, tc.lcfg)
			for seed := uint64(0); seed < 12; seed++ {
				got, err := b.Build(seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := toolchain.BuildLayout(p, seed, tc.ccfg, tc.lcfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: builder executable differs from BuildLayout", seed)
				}
			}
		})
	}
}

// TestBuilderConcurrentBuilds checks that Reorder leaves the shared units
// untouched: concurrent Build calls over the same Builder must produce the
// same executables as sequential ones (run under -race in CI).
func TestBuilderConcurrentBuilds(t *testing.T) {
	spec, ok := progen.ByName("401.bzip2")
	if !ok {
		t.Fatal("missing spec")
	}
	p := progen.MustGenerate(spec)
	b := toolchain.NewBuilder(p, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	const n = 16
	sequential := make([]*toolchain.Executable, n)
	for i := range sequential {
		exe, err := b.Build(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = exe
	}
	concurrent := make([]*toolchain.Executable, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = b.Build(uint64(i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(concurrent[i], sequential[i]) {
			t.Fatalf("seed %d: concurrent build differs from sequential", i)
		}
	}
}

// TestCacheKeyInvalidation checks that the builder key changes with
// everything that determines a layout, and pins its bytes.
func TestCacheKeyInvalidation(t *testing.T) {
	branchy := testprog.Branchy()
	ccfg := toolchain.CompileConfig{ProcsPerUnit: 2}
	base := toolchain.NewBuilder(branchy, ccfg, toolchain.LinkConfig{}).CacheKey()

	// LayoutRunner.AttestationKey hashes this key into every
	// observation's fingerprint, so a coordinator and a worker built
	// from different commits must compute the same bytes.
	if want := "5d299e645bfe278526d280692e300ba6d77c3ce299c3eec52fadd5e8b785ebc3"; base != want {
		t.Errorf("key = %s, want %s", base, want)
	}
	same := toolchain.NewBuilder(testprog.Branchy(), ccfg, toolchain.LinkConfig{}).CacheKey()
	if same != base {
		t.Error("equal program and config produced different keys")
	}
	if k := toolchain.NewBuilder(testprog.Memory(3), ccfg, toolchain.LinkConfig{}).CacheKey(); k == base {
		t.Error("different program shares the key")
	}
	if k := toolchain.NewBuilder(branchy, toolchain.CompileConfig{ProcsPerUnit: 1}, toolchain.LinkConfig{}).CacheKey(); k == base {
		t.Error("different unit partition shares the key")
	}
	if k := toolchain.NewBuilder(branchy, ccfg, toolchain.LinkConfig{FetchAlign: 128}).CacheKey(); k == base {
		t.Error("different link config shares the key")
	}
}
