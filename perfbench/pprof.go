package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// profile is a CPU profile reduced to what the ledger reports.
type profile struct {
	total float64            // seconds over all samples
	cum   map[string]float64 // function → seconds of samples with it on the stack
	flat  map[string]float64 // package path → seconds of samples whose leaf is in it
}

// readProfile runs `go tool pprof -traces` on a CPU profile and reduces
// its stacks to per-function cumulative and per-package flat seconds.
func readProfile(goBin, path string, funcs []string) (*profile, error) {
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", path)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	p, perr := parseTraces(out, funcs)
	io.Copy(io.Discard, out) //nolint:errcheck // let pprof finish writing
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return p, perr
}

// parseTraces reads `pprof -traces` text: a header, then one block per
// distinct stack, separated by dashed lines, whose first line carries
// the sample value before the leaf frame. A sample counts toward a
// function in funcs when the function or one of its closures (name.funcN,
// which also covers goroutines it started) is on the stack; each sample
// counts at most once per function.
func parseTraces(r io.Reader, funcs []string) (*profile, error) {
	p := &profile{cum: map[string]float64{}, flat: map[string]float64{}}
	for _, f := range funcs {
		p.cum[f] = 0
	}
	var (
		value  float64
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) == 0 {
			return
		}
		p.total += value
		p.flat[pkgOf(frames[0])] += value
		for _, f := range funcs {
			for _, fr := range frames {
				if fr == f || strings.HasPrefix(fr, f+".func") {
					p.cum[f] += value
					break
				}
			}
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			// First line of a block: "<value> <frame> [(inline)]".
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %w", err)
			}
			value = v
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	return p, sc.Err()
}

// parseDuration reads pprof's scaled durations ("10ms", "1.20s",
// "1.5mins").
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("bad duration %q", s)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("bad duration %q", s)
}

// pkgOf is the package path of a symbol such as
// "repro/internal/rem.(*Map).Interpolate" or "runtime.mallocgc".
func pkgOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}
