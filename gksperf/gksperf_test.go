package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // 1..1000, unsorted
	}
	p99, err := percentile(samples, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", p99)
	}
	if _, err := percentile(samples[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must fail")
	}
	small := make([]float64, 21)
	for i := range small {
		small[i] = float64(21 - i)
	}
	if v, err := percentile(small, 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = 1
	}
	for i := 0; i < 11; i++ {
		samples[i] = math.Inf(1)
	}
	p99, err := percentile(samples, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p99, 1) {
		t.Fatalf("11 failures in 1000 must put p99 at +Inf, got %v", p99)
	}
}

func TestProcStat(t *testing.T) {
	// The command name holds a space and a parenthesis.
	stat := "4242 (gks d) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 12345 1000000 2500 18446744073709551615"
	ticks, err := procCPUTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 325 {
		t.Fatalf("utime+stime = %d, want 325", ticks)
	}
	if _, err := procCPUTicks("4242 (gksd) S 1 2"); err == nil {
		t.Fatal("a truncated stat line must fail")
	}
}

func TestProcStatus(t *testing.T) {
	status := "Name:\tgksd\nVmPeak:\t  812340 kB\nVmHWM:\t   33620 kB\nVmRSS:\t   30000 kB\n"
	kib, err := procStatusKiB(status, "VmHWM")
	if err != nil || kib != 33620 {
		t.Fatalf("VmHWM = %d, %v; want 33620", kib, err)
	}
	if _, err := procStatusKiB(status, "VmSwap"); err == nil {
		t.Fatal("a missing field must fail")
	}
}

func TestPromDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP gks_wal_checkpoints_total Background checkpoints by result.
# TYPE gks_wal_checkpoints_total counter
gks_wal_checkpoints_total{result="success"} 3
gks_wal_checkpoints_total{result="failure"} 0
gks_http_requests_total{endpoint="search a b"} 10
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`gks_wal_checkpoints_total{result="success"} 7
gks_wal_checkpoints_total{result="failure"} 0
gks_http_requests_total{endpoint="search a b"} 25
gks_repack_total 2
gks_wal_fsync_duration_seconds_sum 0.125
`))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`gks_wal_checkpoints_total{result="success"}`:    4,
		`gks_wal_checkpoints_total{result="failure"}`:    0,
		`gks_http_requests_total{endpoint="search a b"}`: 15,
		"gks_repack_total":                   2, // absent before: counts from zero
		"gks_wal_fsync_duration_seconds_sum": 0.125,
	} {
		if got := delta(before, after, series); got != want {
			t.Errorf("delta %s = %v, want %v", series, got, want)
		}
	}
	if _, err := parseProm(strings.NewReader("gks_docs notanumber\n")); err == nil {
		t.Fatal("a bad value must fail")
	}
}

func TestStreamDeterministic(t *testing.T) {
	w, _ := findWorkload("ingest-mixed")
	pool := []query{{"alpha beta", 2}, {"gamma delta epsilon", 3}, {"zeta eta", 2}}
	a, err := buildStream(w, pool, 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildStream(w, pool, 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if streamHash(a) != streamHash(b) {
		t.Fatal("the same seed gave two op streams")
	}
	c, err := buildStream(w, pool, 8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if streamHash(a) == streamHash(c) {
		t.Fatal("different seeds gave the same op stream")
	}
	for _, phase := range [][]op{a.warmup, a.window, a.writes} {
		for i := 1; i < len(phase); i++ {
			if phase[i].at < phase[i-1].at {
				t.Fatalf("op %d is due before op %d", i, i-1)
			}
		}
	}
	markers := map[string]bool{}
	for _, o := range append(append([]op(nil), a.window...), a.writes...) {
		if o.kind != opUpsert {
			continue
		}
		if markers[o.marker] {
			t.Fatalf("marker %s used twice", o.marker)
		}
		markers[o.marker] = true
	}
	if len(markers) == 0 {
		t.Fatal("ingest-mixed carries no upserts")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	kids := []span{
		{Start: at(10), End: at(30)},
		{Start: at(20), End: at(40)},  // overlaps the first: union 10..40
		{Start: at(90), End: at(120)}, // clipped to the parent: 90..100
		{Start: at(50), End: at(50)},  // empty
	}
	if got, want := selfTime(parent, kids), 60*time.Millisecond; got != want {
		t.Fatalf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("self time without children = %v, want 100ms", got)
	}
}
