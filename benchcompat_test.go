package crossbow

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchCompatUnused: the names kept only because the frozen benchmark
// module compiles against them — tensor.KernelMode/Deterministic/Fast,
// Gemm{,TA,TB}Mode, FMAAvailable, (*nn.Network).SetKernelMode and
// crossbow.KernelMode/Deterministic/Config.KernelMode — appear nowhere in the
// root module's non-test source outside the two benchcompat.go files and
// crossbow.go's benchcompat block, so ROADMAP item 6(f) can delete the shims
// without reading a caller.
func TestBenchCompatUnused(t *testing.T) {
	shim := regexp.MustCompile(`KernelMode|tensor\.(Fast|Deterministic)\b|\bGemm(TA|TB)?Mode\b|\bFMAAvailable\b`)
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
			case path == "crossbow.go" && strings.Contains(line, "benchcompat:begin"):
				inBlock = true
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
}

// TestTrainRejectsDeletedKernelMode: the Config.KernelMode field survives for
// the benchmark module only; anything but its zero value names a mode that no
// longer exists and is refused rather than silently ignored.
func TestTrainRejectsDeletedKernelMode(t *testing.T) {
	if _, err := Train(Config{Model: LeNet, KernelMode: 1}); err == nil {
		t.Fatal("Train accepted Config.KernelMode 1 (the deleted Fast mode)")
	}
}
