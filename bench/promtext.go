package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
}

// scrape maps every sample line's series key (name plus its label set,
// as printed) to its value.
type scrape map[string]float64

// parseProm reads a Prometheus text exposition (format 0.0.4, no
// timestamps), as knorserve's /metrics and /metrics/cluster print it.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		key, val := line[:cut], line[cut+1:]
		if _, err := parseSeries(key); err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: value %q: %w", ln, val, err)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return out, nil
}

// parseSeries splits a series key such as
// knor_shardserve_shard_seconds_sum{rank="0",shard="1"} into its name
// and labels.
func parseSeries(key string) (series, error) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return series{name: key}, nil
	}
	if !strings.HasSuffix(key, "}") {
		return series{}, fmt.Errorf("series %q: unterminated label set", key)
	}
	s := series{name: key[:open], labels: map[string]string{}}
	rest := key[open+1 : len(key)-1]
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			return series{}, fmt.Errorf("series %q: malformed label", key)
		}
		name := rest[:eq]
		val, n, err := unquoteLabel(rest[eq+1:])
		if err != nil {
			return series{}, fmt.Errorf("series %q: %w", key, err)
		}
		s.labels[name] = val
		rest = strings.TrimPrefix(rest[eq+1+n:], ",")
	}
	return s, nil
}

// unquoteLabel decodes a leading "..." label value with the exposition's
// escapes and returns it with the number of bytes consumed.
func unquoteLabel(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			if s[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// sub returns s − before for every series in s (a series absent before
// counts from zero), the change of counters and histograms over a phase.
func (s scrape) sub(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series named name whose labels include all of the
// given name=value pairs.
func (s scrape) sum(name string, match ...string) float64 {
	var total float64
	for k, v := range s {
		if !strings.HasPrefix(k, name) {
			continue
		}
		se, err := parseSeries(k)
		if err != nil || se.name != name || !hasLabels(se, match) {
			continue
		}
		total += v
	}
	return total
}

func hasLabels(se series, match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if se.labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// histMean is a histogram's mean over the scrape (usually a phase
// diff): _sum over _count across the matching series. NaN when the
// histogram saw no observations.
func (s scrape) histMean(name string, match ...string) float64 {
	n := s.sum(name+"_count", match...)
	if n == 0 {
		return math.NaN()
	}
	return s.sum(name+"_sum", match...) / n
}
