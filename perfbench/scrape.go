package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSet is a parsed /metrics scrape.
type promSet []promSample

// parseProm parses Prometheus text exposition: comment lines are
// skipped, and an OpenMetrics exemplar ("value # {...} v") after the
// sample value is ignored.
func parseProm(r io.Reader) (promSet, error) {
	var out promSet
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		if i := strings.Index(text, " # "); i >= 0 {
			text = text[:i]
		}
		s, err := parsePromLine(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(text string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := text
	if i := strings.IndexByte(text, '{'); i >= 0 {
		j := strings.LastIndexByte(text, '}')
		if j < i {
			return s, fmt.Errorf("unbalanced braces in %q", text)
		}
		s.name = text[:i]
		if err := parseLabels(text[i+1:j], s.labels); err != nil {
			return s, err
		}
		rest = text[j+1:]
	} else {
		sp := strings.IndexByte(text, ' ')
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", text)
		}
		s.name, rest = text[:sp], text[sp:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	v, err := parsePromFloat(fields[0])
	if err != nil {
		return s, err
	}
	s.value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return fmt.Errorf("bad label list %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(body) && body[i] != '"'; i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i])
				}
				continue
			}
			val.WriteByte(body[i])
		}
		if i >= len(body) {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		into[key] = val.String()
		body = strings.TrimLeft(body[i+1:], ", ")
	}
	return nil
}

func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// sum adds every sample named name whose labels include all of match.
func (ps promSet) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range ps {
		if s.name == name && labelsMatch(s.labels, match) {
			total += s.value
		}
	}
	return total
}

func labelsMatch(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// hist returns the cumulative buckets of histogram name summed over
// the label sets keep accepts, sorted by bound.
func (ps promSet) hist(name string, keep func(labels map[string]string) bool) []bucket {
	byLE := map[float64]float64{}
	for _, s := range ps {
		if s.name != name+"_bucket" || !keep(s.labels) {
			continue
		}
		le, err := parsePromFloat(s.labels["le"])
		if err != nil {
			continue
		}
		byLE[le] += s.value
	}
	out := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
// It is 100 on every mainstream kernel configuration.
const clockTicks = 100

// parseProcStat returns utime+stime in seconds from /proc/<pid>/stat.
// Fields are counted after the parenthesised command name, which may
// itself contain spaces.
func parseProcStat(data []byte) (float64, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command terminator")
	}
	fields := strings.Fields(string(data[end+1:]))
	// fields[0] is the state (field 3); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(fields))
	}
	ut, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// parseProcStatus returns the value of a "Key:   N kB" line of
// /proc/<pid>/status in KiB.
func parseProcStatus(data []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPU reads a live process's CPU seconds so far.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(data)
}

// procHWM reads a live process's peak resident set size in KiB.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatus(data, "VmHWM")
}

// parseNumGC reads the NumGC line of a heap profile's runtime.MemStats
// footer (GET /debug/pprof/heap?debug=1).
func parseNumGC(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# NumGC = "); ok {
			return strconv.Atoi(strings.TrimSpace(v))
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no NumGC line")
}
