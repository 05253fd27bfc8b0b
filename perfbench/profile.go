package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "github.com/onelab/umtslab/"

// profiler holds a CPU profile being taken.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(o *options) (*profiler, error) {
	path := filepath.Join(o.outDir, "cpu-"+o.workload+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

// sample is one distinct stack of the profile with the CPU time charged
// to it; frames run from the innermost outwards.
type sample struct {
	dur    time.Duration
	frames []string
}

// cpuProfile is a parsed profile.
type cpuProfile struct {
	samples []sample
	total   time.Duration
}

// stop ends the profile and reads it back with `go tool pprof -traces`.
func (p *profiler) stop(o *options) (*cpuProfile, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, p.path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+o.outDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces reads pprof's -traces listing: blocks separated by dashed
// lines, each starting with the sample's CPU time and its innermost
// frame, followed by one caller per line. Samples of the benchmark's
// calibration kernel are dropped: it is not work of the program.
func parseTraces(out []byte) (*cpuProfile, error) {
	prof := &cpuProfile{}
	var cur *sample
	flush := func() {
		if cur != nil && len(cur.frames) > 0 && !slices.Contains(cur.frames, "main.calibrate") {
			prof.samples = append(prof.samples, *cur)
			prof.total += cur.dur
		}
		cur = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			cur = &sample{}
			continue
		}
		if cur == nil {
			continue // header lines
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(cur.frames) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue // a label line
			}
			cur.dur = d
			cur.frames = append(cur.frames, fields[1])
			continue
		}
		cur.frames = append(cur.frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if prof.total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	return prof, nil
}

// layerOf names the layer a frame belongs to: its package's last path
// element for the program's packages, "other" for the benchmark's own
// frames and for program packages outside cpuLayers, "" for frames
// outside the repository.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	pkg := fn[len(modulePrefix):]
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	name := pkg[strings.LastIndex(pkg, "/")+1:]
	for _, l := range cpuLayers {
		if l == name {
			return name
		}
	}
	return "other"
}

// shares charges each sample to the innermost frame that lies in the
// repository and returns every layer's share of the CPU time; stacks
// with no such frame are charged to "runtime".
func (p *cpuProfile) shares() map[string]float64 {
	byLayer := map[string]time.Duration{}
	for _, s := range p.samples {
		byLayer[innermostLayer(s.frames)] += s.dur
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = float64(byLayer[l]) / float64(p.total)
	}
	return out
}

// timeWhere sums the CPU time of samples for which keep holds.
func (p *cpuProfile) timeWhere(keep func(frames []string) bool) time.Duration {
	var d time.Duration
	for _, s := range p.samples {
		if keep(s.frames) {
			d += s.dur
		}
	}
	return d
}

// innermostLayer is the layer of the innermost repository frame.
func innermostLayer(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "runtime"
}

// isDialup holds for samples of connection bring-up and teardown: a
// named function or method of a dial-up package (dialer, core, vsys,
// fault, modem) or the PPP control protocols and authentication
// anywhere on the stack. Closures of those packages and the modem's
// data-mode input are skipped: they are the data path a connection
// runs once it is up.
func isDialup(frames []string) bool {
	for _, f := range frames {
		switch layerOf(f) {
		case "dialer", "core", "vsys", "fault", "modem":
			if !strings.Contains(f, ".func") && !strings.HasSuffix(f, ".(*Modem).input") &&
				!strings.HasSuffix(f, ".(*Modem).dataInput") {
				return true
			}
		case "ppp":
			if strings.Contains(f, "(*automaton)") || strings.Contains(f, "chap") || strings.Contains(f, "Pap") {
				return true
			}
		}
	}
	return false
}

// isBuild holds for samples in testbed code running outside the event
// loop: building a scenario and collecting its results.
func isBuild(frames []string) bool {
	inTestbed := false
	for _, f := range frames {
		if strings.HasPrefix(f, modulePrefix+"internal/sim") {
			return false
		}
		if strings.HasPrefix(f, modulePrefix+"internal/testbed.") {
			inTestbed = true
		}
	}
	return inTestbed
}
