package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is
// kept for re-checking a claim on a seed it was not tuned on. Both have
// recorded reference digests in expected.json.
const (
	defaultSeed = 1
	heldOutSeed = 20081209
)

// runSeed derives the simulation seed of a workload's i-th distinct
// spec from the benchmark seed (splitmix64 over the seed, the workload
// name and i), kept to 31 bits so every spec stays small and valid.
func runSeed(seed int64, workload string, i int) int64 {
	x := uint64(seed)
	for _, c := range workload {
		x = x*1099511628211 + uint64(c)
	}
	x += uint64(i+1) * 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x & 0x7fffffff)
}

// reference is one distinct spec of a workload with its checked
// outcome: the SHA-256 of its canonical control.EncodeReport bytes and
// the exact per-operation program counters.
type reference struct {
	Spec   string           `json:"spec"`
	SHA256 string           `json:"sha256"`
	Counts map[string]int64 `json:"counts"`
}

// expectedFile is expected.json: workload -> seed -> references.
type expectedFile map[string]map[string][]reference

//go:embed expected.json
var expectedJSON []byte

var expected = func() expectedFile {
	e := expectedFile{}
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic("perfbench: expected.json: " + err.Error())
	}
	return e
}()

// expectedFor returns the recorded references of a workload and seed,
// or nil when the seed has none.
func expectedFor(workload string, seed int64) []reference {
	return expected[workload][strconv.FormatInt(seed, 10)]
}

// expectedRefs returns what every operation of the run must match: the
// recorded references when the seed has a record in expected.json,
// otherwise this run's own reference runs. A difference between the two
// is noted here and fails every operation of the drifted spec.
func expectedRefs(o *options, rep *report, refs []reference) []reference {
	rep.detail["references"] = refs
	want := expectedFor(o.workload, o.seed)
	if want == nil || o.record {
		rep.detail["expected_check"] = "no record for this seed"
		return refs
	}
	rep.detail["expected_check"] = "compared with expected.json"
	if len(want) != len(refs) {
		rep.broken("expected.json holds %d specs, run has %d", len(want), len(refs))
		return refs
	}
	for i, w := range want {
		got := refs[i]
		if w.Spec != got.Spec || w.SHA256 != got.SHA256 {
			rep.note("spec %d: digest %s, expected %s", i, got.SHA256, w.SHA256)
		}
		if !sameCounts(w.Counts, got.Counts) {
			rep.note("spec %d: work counts %v, expected %v", i, got.Counts, w.Counts)
		}
	}
	return want
}

// recordExpected writes this run's references into the checkout's
// perfbench/expected.json; rebuild the benchmark for it to take effect.
func recordExpected(o *options, rep *report) error {
	refs, _ := rep.detail["references"].([]reference)
	if len(refs) == 0 {
		return fmt.Errorf("no references to record")
	}
	path := filepath.Join("perfbench", "expected.json")
	e := expectedFile{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if e[o.workload] == nil {
		e[o.workload] = map[string][]reference{}
	}
	e[o.workload][strconv.FormatInt(o.seed, 10)] = refs
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// commitOf returns the checkout's git commit, or "unknown" when the
// checkout is not a git work tree. Git is kept from searching above the
// checkout.
func commitOf(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod files (paths
// and contents, in path order), identifying the code measured when the
// checkout carries no commit.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "expected.json") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
