package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	gks "repro"
)

// boots and crashes are how many times a run repeats the gksd boot and
// the crash recovery to report their medians. In a --trace 0 run a timed
// index build precedes every boot, so builds and boots spread over the
// set-up together.
const (
	boots   = 9
	crashes = 3
)

// prep is everything a run needs before it starts gksd.
type prep struct {
	w        workload
	seed     int64
	window   time.Duration
	dir      string      // this run's directory; gksd's files live under it
	bin      string      // directory holding the gks and gksd binaries
	index    string      // GKS4 segment built by `gks index`
	xml      string      // the generated corpus
	builds   []float64   // build times, s
	lib      *gks.System // the same index file, opened in-process
	baseDocs int
	sample   []query
	st       stream
}

func prepare(w workload, seed int64, window time.Duration, root string) (*prep, error) {
	p := &prep{w: w, seed: seed, window: window,
		dir: filepath.Join(root, ".bench_build", "run", w.name),
		bin: filepath.Join(root, ".bench_build", "bin"),
	}
	if err := os.RemoveAll(p.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	doc, err := corpusDoc(w.corpus)
	if err != nil {
		return nil, err
	}
	p.xml = filepath.Join(p.dir, w.corpus+".xml")
	if err := writeCorpus(p.xml, doc); err != nil {
		return nil, err
	}
	p.index = filepath.Join(p.dir, w.corpus+".gks4")
	if err := p.build(p.index); err != nil {
		return nil, err
	}
	if p.lib, err = gks.LoadIndexFile(p.index); err != nil {
		return nil, err
	}
	p.baseDocs = p.lib.Stats().Documents
	pool, err := queryPool(w.corpus, doc, p.lib)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sampleSize; i++ {
		p.sample = append(p.sample, pool[i*len(pool)/sampleSize])
	}
	p.st, err = buildStream(w, pool, seed, window)
	return p, err
}

// build times one `gks index -format=gks4` of the corpus into out.
func (p *prep) build(out string) error {
	flushDirty()
	start := time.Now()
	b, err := exec.Command(filepath.Join(p.bin, "gks"), "index", "-format=gks4", "-out", out, p.xml).CombinedOutput()
	if err != nil {
		return fmt.Errorf("gks index: %v: %s", err, b)
	}
	p.builds = append(p.builds, time.Since(start).Seconds())
	return nil
}

// rebuild times a build into a file of its own, so the served index and
// the one the library has open stay untouched.
func (p *prep) rebuild() error { return p.build(filepath.Join(p.dir, "rebuild.gks4")) }

// bootDir returns a fresh directory holding a pristine copy of the index,
// so every boot starts from the built file and an empty WAL.
func (p *prep) bootDir(name string) (string, error) {
	dir := filepath.Join(p.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	index := filepath.Join(dir, filepath.Base(p.index))
	return index, copyFile(p.index, index)
}

// measured is what one load run against one server observed.
type measured struct {
	tally
	warmup, window, writes []result // results of the three phases
	cpu                    time.Duration
	rssMiB                 float64
	checkErr               error // first failed correctness check
}

// readP50 is the window's median read latency in ms.
func (m *measured) readP50(p *prep) float64 {
	return median(latencies(p.st.window, m.window, isRead))
}

// sentOps pairs every op the load sent with its result.
func (p *prep) sentOps(m *measured) ([]op, []result) {
	var ops []op
	var rs []result
	add := func(phase []op, results []result) {
		ops = append(ops, phase[:len(results)]...)
		rs = append(rs, results...)
	}
	add(p.st.warmup, m.warmup)
	add(p.st.window, m.window)
	add(p.st.writes, m.writes)
	return ops, rs
}

// flushDirty writes back every dirty page before a timed step, so the
// kernel's background writeback of files an earlier step wrote does not
// land inside it (an fsync would otherwise wait for it).
func flushDirty() { syscall.Sync() }

// drive runs the correctness sample and the load phases against base,
// the write phase only if writes is set. mark is called as the measured
// window starts and again as it ends, to sample the server's resource use.
func drive(p *prep, base string, writes bool, mark func(end bool) error) (*measured, error) {
	m := &measured{}
	clients := newClients()
	defer closeClients(clients)
	if err := checkReads(clients[0], base, p.lib, p.w.corpus, p.sample); err != nil {
		m.checkErr = fmt.Errorf("read check: %w", err)
	}
	flushDirty()
	m.warmup = runPhase(base, clients, p.st.warmup)
	m.add(p.st.warmup, m.warmup)
	if err := mark(false); err != nil {
		return nil, err
	}
	m.window = runPhase(base, clients, p.st.window)
	if err := mark(true); err != nil {
		return nil, err
	}
	m.add(p.st.window, m.window)
	if writes {
		m.writes = runPhase(base, clients, p.st.writes)
		m.add(p.st.writes, m.writes)
	}
	return m, nil
}

// untraced measures the end-to-end metrics against real gksd processes.
// With full unset it stops after the window and returns no metrics: the
// traced invocation needs only the window's reads as its baseline.
func untraced(p *prep, full bool) (*measured, map[string]metric, error) {
	gksd := filepath.Join(p.bin, "gksd")
	var setup []float64
	var d *daemon
	var index string
	for i := 0; i < boots; i++ {
		var err error
		if full {
			if err := p.rebuild(); err != nil {
				return nil, nil, err
			}
		}
		if index, err = p.bootDir(fmt.Sprintf("boot%d", i)); err != nil {
			return nil, nil, err
		}
		flushDirty()
		var up time.Duration
		if d, up, err = startDaemon(gksd, index); err != nil {
			return nil, nil, err
		}
		setup = append(setup, up.Seconds())
		if i < boots-1 {
			d.stop(syscall.SIGTERM)
		}
	}
	defer func() {
		if d != nil {
			d.stop(syscall.SIGTERM)
		}
	}()

	var cpu0, cpu1 time.Duration
	var rss float64
	m, err := drive(p, d.base, full, func(end bool) (err error) {
		if !end {
			cpu0, err = cpuTime(d.pid())
			return err
		}
		if cpu1, err = cpuTime(d.pid()); err != nil {
			return err
		}
		rss, err = peakRSS(d.pid())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	m.cpu, m.rssMiB = cpu1-cpu0, rss
	if !full {
		return m, nil, nil
	}
	check := writeChecker(p, m)
	check("after load", d.base)

	var recovery []float64
	for i := 0; i < crashes; i++ {
		d.stop(syscall.SIGKILL)
		flushDirty()
		next, up, err := startDaemon(gksd, index)
		d = next
		if err != nil {
			return nil, nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recovery = append(recovery, up.Seconds())
	}
	check("after restart", d.base)

	met, err := endToEnd(p, m)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("setup samples %.4f s\n", setup)
	met["setup_s"] = metric{median(setup), "s"}
	// Build and recovery times are printed, not reported: see README.md,
	// "Steadiness".
	fmt.Printf("build samples %.4f s, median %.4f s (unbounded)\n", p.builds, median(append([]float64(nil), p.builds...)))
	fmt.Printf("recovery samples %.4f s, median %.4f s (unbounded)\n", recovery, median(recovery))
	return m, met, nil
}

// writeChecker returns a function that checks the served document set
// against the acknowledged upserts and keeps the first failure in m.
func writeChecker(p *prep, m *measured) func(stage, base string) {
	ops, rs := p.sentOps(m)
	model, merr := buildModel(p.baseDocs, ops, rs)
	cl := &http.Client{Timeout: requestTimeout}
	return func(stage, base string) {
		if m.checkErr != nil {
			return
		}
		err := merr
		if err == nil {
			err = checkWrites(cl, base, model)
		}
		if err != nil {
			m.checkErr = fmt.Errorf("write check %s: %w", stage, err)
		}
		cl.CloseIdleConnections()
	}
}

// endToEnd derives the CPU and memory metrics of a run. The window's read
// latencies are printed, not reported: see README.md, "Steadiness".
func endToEnd(p *prep, m *measured) (map[string]metric, error) {
	reads := latencies(p.st.window, m.window, isRead)
	p50 := median(append([]float64(nil), reads...))
	p99, err := percentile(reads, 0.99)
	if err != nil {
		return nil, fmt.Errorf("read p99: %w", err)
	}
	fmt.Printf("read p50 %.4f ms, p99 %.4f ms (unbounded)\n", p50, p99)
	done := succeeded(m.window)
	if done == 0 {
		return nil, fmt.Errorf("no operation of the window succeeded")
	}
	return map[string]metric{
		"cpu_ms_per_op": {ms(m.cpu) / float64(done), "ms"},
		"peak_rss_mib":  {m.rssMiB, "MiB"},
	}, nil
}
