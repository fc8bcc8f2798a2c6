package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// senders is the number of sending goroutines, each with one keep-alive
// connection; it matches the 2 vCPUs the benchmark was sized on.
const senders = 2

// requestTimeout bounds one request; a request that hits it has failed.
const requestTimeout = 10 * time.Second

// result is the outcome of one scheduled op.
type result struct {
	ok      bool
	status  int
	latency time.Duration // completion minus scheduled send time
	late    time.Duration // actual send minus scheduled send time
	lsn     uint64        // WAL position an upsert was acknowledged at
	err     string
}

// newClients returns one HTTP client per sender, each holding at most one
// connection.
func newClients() []*http.Client {
	cs := make([]*http.Client, senders)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// runPhase sends ops open-loop: op i is due at start+ops[i].at whatever
// happened to earlier ops. Each sender takes the next unsent op of its
// lane, sleeps until it is due and sends it, so when a sender is busy its
// next op waits, and that wait is part of the op's latency because
// latency is measured from the scheduled time (no coordinated omission).
func runPhase(base string, clients []*http.Client, ops []op) []result {
	results := make([]result, len(ops))
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for i, ln := range lanes(ops, len(clients)) {
		wg.Add(1)
		go func(cl *http.Client, ln *lane) {
			defer wg.Done()
			for {
				j := int(ln.next.Add(1) - 1)
				if j >= len(ln.ops) {
					return
				}
				i := ln.ops[j]
				due := start.Add(ops[i].at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				r := send(cl, base, &ops[i])
				r.latency = time.Since(due)
				r.late = sent.Sub(due)
				results[i] = r
			}
		}(clients[i], ln)
	}
	wg.Wait()
	return results
}

// lane is a queue of op indexes that one or more senders drain in order.
type lane struct {
	ops  []int
	next atomic.Int64
}

// lanes gives each of n senders its lane. In a phase that mixes reads and
// upserts the first sender carries the reads and the others the upserts,
// so a read never waits in the generator behind an upsert that a
// checkpoint holds up; otherwise all senders share one lane.
func lanes(ops []op, n int) []*lane {
	all, reads, writes := &lane{}, &lane{}, &lane{}
	for i, o := range ops {
		all.ops = append(all.ops, i)
		if o.kind == opUpsert {
			writes.ops = append(writes.ops, i)
		} else {
			reads.ops = append(reads.ops, i)
		}
	}
	out := make([]*lane, n)
	for i := range out {
		switch {
		case len(reads.ops) == 0 || len(writes.ops) == 0:
			out[i] = all
		case i == 0:
			out[i] = reads
		default:
			out[i] = writes
		}
	}
	return out
}

// send performs one op; any transport error or non-2xx status fails it.
func send(cl *http.Client, base string, o *op) result {
	var req *http.Request
	var err error
	if o.kind == opUpsert {
		req, err = http.NewRequest(http.MethodPost, base+o.path, bytes.NewReader(o.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, base+o.path, nil)
	}
	if err != nil {
		return result{err: err.Error()}
	}
	resp, err := cl.Do(req)
	if err != nil {
		return result{err: err.Error()}
	}
	defer resp.Body.Close()
	r := result{status: resp.StatusCode, ok: resp.StatusCode/100 == 2}
	if o.kind != opUpsert {
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return result{status: resp.StatusCode, err: err.Error()}
		}
		return r
	}
	var ack struct {
		LSN uint64 `json:"lsn"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return result{status: resp.StatusCode, err: err.Error()}
	}
	if r.ok && ack.LSN == 0 {
		return result{status: resp.StatusCode, err: "upsert acknowledged without a WAL position"}
	}
	r.lsn = ack.LSN
	return r
}

// tally counts ops by kind across phases.
type tally struct {
	sent, ok [numKinds]int
	errs     []string // first few failure reasons
}

func (t *tally) add(ops []op, rs []result) {
	for i, r := range rs {
		k := ops[i].kind
		t.sent[k]++
		if r.ok {
			t.ok[k]++
		} else if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%s %s: status %d %s", kindNames[k], ops[i].path, r.status, r.err))
		}
	}
}

func (t *tally) attempted() (n int) {
	for _, s := range t.sent {
		n += s
	}
	return n
}

func (t *tally) failed() (n int) {
	for k := range t.sent {
		n += t.sent[k] - t.ok[k]
	}
	return n
}

// succeeded counts the results that succeeded.
func succeeded(rs []result) (n int) {
	for _, r := range rs {
		if r.ok {
			n++
		}
	}
	return n
}

// latencies returns the latencies in ms of the ops whose kind passes keep;
// a failed op is +Inf, missing every limit.
func latencies(ops []op, rs []result, keep func(opKind) bool) []float64 {
	var out []float64
	for i, r := range rs {
		if !keep(ops[i].kind) {
			continue
		}
		if r.ok {
			out = append(out, ms(r.latency))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// lateness returns how late the generator sent each op, in ms.
func lateness(rs []result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.late)
	}
	return out
}

func isRead(k opKind) bool  { return k != opUpsert }
func isWrite(k opKind) bool { return k == opUpsert }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
