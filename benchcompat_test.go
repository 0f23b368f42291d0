package crossbow

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchCompatUnused: the names kept only because the frozen benchmark
// module compiles against them — tensor.KernelMode/Deterministic/Fast,
// Gemm{,TA,TB}Mode, FMAAvailable, SetActiveLearners,
// (*nn.Network).SetKernelMode and Config.KernelMode with its Deterministic
// (core.Config's, which crossbow re-exports) — appear nowhere in the root
// module's non-test source outside the two benchcompat.go files and one
// marked benchcompat block, the one beside the Config type, so the shims can
// be deleted, once the benchmark stops naming them, without reading a
// caller. The deleted ActiveLearners and SetParallelism may not come back
// either.
func TestBenchCompatUnused(t *testing.T) {
	shim := regexp.MustCompile(`KernelMode|tensor\.(Fast|Deterministic)\b|\bGemm(TA|TB)?Mode\b|\bFMAAvailable\b|ActiveLearners|\bSetParallelism\b`)
	var blocks []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "benchcompat.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		inBlock := false
		for i, line := range strings.Split(string(src), "\n") {
			switch {
			case strings.Contains(line, "benchcompat:begin"):
				inBlock = true
				blocks = append(blocks, fmt.Sprintf("%s:%d", path, i+1))
			case strings.Contains(line, "benchcompat:end"):
				inBlock = false
			case !inBlock && shim.MatchString(line):
				t.Errorf("%s:%d names a benchmark-compat shim: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Errorf("%d benchcompat blocks (%v), want exactly one", len(blocks), blocks)
	}
}

// TestTrainRejectsDeletedKernelMode: the Config.KernelMode field survives for
// the benchmark module only; anything but its zero value names a mode that no
// longer exists and is refused rather than silently ignored.
func TestTrainRejectsDeletedKernelMode(t *testing.T) {
	if _, err := Train(Config{Model: LeNet, KernelMode: 1}); err == nil {
		t.Fatal("Train accepted Config.KernelMode 1 (the deleted Fast mode)")
	}
}
