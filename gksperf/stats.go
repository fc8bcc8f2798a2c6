package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 over fewer than 1,000 samples would be set by a handful of requests.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// which it sorts in place. It fails unless at least minBeyond samples lie
// strictly beyond the returned rank, so a short run cannot report a tail
// it did not observe. Failed operations enter as +Inf: they miss every
// latency limit.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank], nil
}

// median of xs (sorted in place); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// promSample maps each series of a Prometheus text exposition, name plus
// label set exactly as written, to its value.
type promSample map[string]float64

// parseProm reads Prometheus text format, skipping comments and blanks.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after[series] - before[series]; a series absent before
// counts from zero (the registry exports some families only once used).
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

// procCPUTicks parses /proc/<pid>/stat and returns utime+stime in clock
// ticks. The command name (field 2) is parenthesized and may itself hold
// spaces or parentheses, so fields are counted from the last ')'.
func procCPUTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command, need 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return ut + st, nil
}

// procStatusKiB returns a "<key>: <n> kB" field of /proc/<pid>/status.
func procStatusKiB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status %s: unexpected %q", key, rest)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s field", key)
}
