// Package load is the benchmark's own load generator for the NDJSON
// query service: closed-loop (a fixed window of unanswered requests per
// stream) and open-loop (requests sent on a precomputed schedule no
// matter how the server keeps up). It is deliberately not shared with
// internal/loadgen: the measurement must not move when a later change
// edits a file the product also uses. It speaks HTTP only and imports
// nothing from the repository.
//
// A closed loop models callers that each wait for a reply, so a slow
// server is offered less load; its result is throughput. An open loop
// models independent users; latency is counted from the time a request
// was due to be sent, so the wait a stall imposes on later requests is
// charged to the server, and how late the generator itself ran is
// reported beside it.
package load

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxResponseLine bounds one response line; materialised answers grow
// with the graph, so this is far above any request line.
const maxResponseLine = 64 << 20

// Config describes the target and the requests of one phase.
type Config struct {
	// Client carries the connection pool; every stream is one POST.
	Client *http.Client
	// URL is the full /v1/query endpoint.
	URL string
	// Pool holds the request templates as JSON object text without an
	// id; the generator splices `"id":N` in front at send time.
	Pool [][]byte
	// Seq is the template index of every request in send order; request
	// i of a phase uses Pool[Seq[(Base+i)%len(Seq)]].
	Seq  []int32
	Base int
	// Streams is the number of concurrent request streams.
	Streams int
	// Rotate, when positive, ends each stream's POST and opens a new one
	// this often, so a long phase is not pinned to the server-side
	// session (and graph generation) it first opened.
	Rotate time.Duration
	// Check reports whether a response is the correct answer for its
	// template. A response carrying an error never reaches it.
	Check func(tmpl int, r *Response) bool
}

// Sample is the outcome of one request. Times are offsets from the
// start of the phase.
type Sample struct {
	Tmpl  int32
	Sched time.Duration // when the request was due
	Sent  time.Duration // when the generator wrote it
	Done  time.Duration // when its response line was read
	OK    bool          // answered, error-free and equal to the oracle
	Eval  float64       // the server's own latency_us for the request
}

// Result is everything one phase observed.
type Result struct {
	Samples []Sample
	Elapsed time.Duration // phase start to last response
	// Errs lists transport-level failures (a stream that broke). Their
	// unanswered requests stay !OK in Samples.
	Errs []error
}

// Failed counts samples that were not answered correctly.
func (r *Result) Failed() int {
	n := 0
	for i := range r.Samples {
		if !r.Samples[i].OK {
			n++
		}
	}
	return n
}

// phase is the state shared by the lanes of one running phase.
type phase struct {
	cfg Config
	t0  time.Time

	mu      sync.Mutex
	samples []Sample
	errs    []error

	readers sync.WaitGroup
}

func (p *phase) fail(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
}

// add registers request id (== len(samples)) and returns it.
func (p *phase) add(sched time.Duration) (id int, tmpl int32) {
	p.mu.Lock()
	id = len(p.samples)
	tmpl = p.cfg.Seq[(p.cfg.Base+id)%len(p.cfg.Seq)]
	p.samples = append(p.samples, Sample{Tmpl: tmpl, Sched: sched})
	p.mu.Unlock()
	return id, tmpl
}

// lane is one logical request stream: a sequence of POSTs (one unless
// Rotate is set) whose responses all come back to the same window.
type lane struct {
	p      *phase
	pw     *io.PipeWriter
	opened time.Time
	// window holds one token per request the lane may still send; nil
	// for an open-loop lane. Readers return a token per response line.
	window chan struct{}
	buf    []byte
}

// connect opens a new POST for the lane and starts its reader.
func (l *lane) connect() error {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, l.p.cfg.URL, pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := l.p.cfg.Client.Do(req)
	if err != nil {
		pw.Close()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		pw.Close()
		return fmt.Errorf("load: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	l.pw, l.opened = pw, time.Now()
	l.p.readers.Add(1)
	go l.read(resp.Body)
	return nil
}

// read consumes one POST's response lines until the server ends it.
func (l *lane) read(body io.ReadCloser) {
	defer l.p.readers.Done()
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), maxResponseLine)
	p := l.p
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		now := time.Now()
		r, err := ParseResponse(line)
		if err != nil {
			p.fail(err)
			continue
		}
		p.mu.Lock()
		if r.ID >= uint64(len(p.samples)) || p.samples[r.ID].Done != 0 {
			p.mu.Unlock()
			p.fail(fmt.Errorf("load: response for unknown or already answered id %d", r.ID))
			continue
		}
		tmpl := p.samples[r.ID].Tmpl
		p.mu.Unlock()
		ok := r.Err == "" && r.ErrKind == "" && p.cfg.Check(int(tmpl), &r)
		p.mu.Lock()
		s := &p.samples[r.ID]
		s.Done, s.OK, s.Eval = now.Sub(p.t0), ok, r.LatencyUS
		p.mu.Unlock()
		if l.window != nil {
			l.window <- struct{}{}
		}
	}
	if err := sc.Err(); err != nil {
		p.fail(fmt.Errorf("load: response stream: %w", err))
	}
}

// send writes request id on the lane's current POST, rotating first
// when the POST is older than Rotate.
func (l *lane) send(id int, tmpl int32) error {
	if l.p.cfg.Rotate > 0 && time.Since(l.opened) >= l.p.cfg.Rotate {
		l.pw.Close()
		if err := l.connect(); err != nil {
			return err
		}
	}
	l.buf = AppendRequest(l.buf[:0], id, l.p.cfg.Pool[tmpl])
	l.p.mu.Lock()
	l.p.samples[id].Sent = time.Since(l.p.t0)
	l.p.mu.Unlock()
	_, err := l.pw.Write(l.buf)
	return err
}

// AppendRequest appends the request line for a template: its JSON
// object text with `"id":id` spliced in front, and a newline.
func AppendRequest(dst []byte, id int, tmpl []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, ',')
	dst = append(dst, tmpl[1:]...)
	return append(dst, '\n')
}

func (l *lane) close() { l.pw.Close() }

// connect opens the phase's lanes before the clock starts, so the
// first requests do not pay for connection set-up. A positive window
// makes the lanes closed-loop.
func (p *phase) connect(window int) ([]*lane, error) {
	lanes := make([]*lane, p.cfg.Streams)
	for i := range lanes {
		l := &lane{p: p}
		if window > 0 {
			l.window = make(chan struct{}, window)
			for j := 0; j < window; j++ {
				l.window <- struct{}{}
			}
		}
		if err := l.connect(); err != nil {
			for _, o := range lanes[:i] {
				o.close()
			}
			p.readers.Wait()
			return nil, err
		}
		lanes[i] = l
	}
	return lanes, nil
}

// start sets the phase clock. Readers exist already (connect), so the
// write is under the lock they read it with.
func (p *phase) start() {
	p.mu.Lock()
	p.t0 = time.Now()
	p.mu.Unlock()
}

func (p *phase) result() Result {
	p.readers.Wait()
	return Result{Samples: p.samples, Elapsed: time.Since(p.t0), Errs: p.errs}
}

// Closed runs a closed loop for d: every stream keeps window requests
// unanswered, sending the next one only when a response arrives. The
// phase ends when d has passed and every sent request was answered (or
// its stream broke).
func Closed(cfg Config, d time.Duration, window int) Result {
	p := &phase{cfg: cfg}
	lanes, err := p.connect(window)
	if err != nil {
		return Result{Errs: []error{err}}
	}
	p.start()
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer l.close()
			stop := time.NewTimer(d)
			defer stop.Stop()
			for {
				select {
				case <-stop.C:
					return
				case <-l.window:
				}
				if time.Since(p.t0) >= d {
					return
				}
				id, tmpl := p.add(time.Since(p.t0))
				if err := l.send(id, tmpl); err != nil {
					p.fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return p.result()
}

// Open runs an open loop: request i is due at offsets[i] after the
// start and goes to stream i%Streams, whether or not earlier requests
// were answered. The phase ends when every request was answered (or
// its stream broke).
func Open(cfg Config, offsets []time.Duration) Result {
	p := &phase{cfg: cfg}
	lanes, err := p.connect(0)
	if err != nil {
		return Result{Errs: []error{err}}
	}
	p.samples = make([]Sample, 0, len(offsets))
	p.start()
	// Each queue can hold the lane's whole share, so the dispatcher
	// never blocks on a lane the server is holding back.
	queues := make([]chan [2]int32, cfg.Streams)
	var wg sync.WaitGroup
	for i, l := range lanes {
		q := make(chan [2]int32, len(offsets)/cfg.Streams+1)
		queues[i] = q
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer l.close()
			broken := false
			for it := range q {
				if broken {
					continue
				}
				if err := l.send(int(it[0]), it[1]); err != nil {
					p.fail(err)
					broken = true
				}
			}
		}()
	}
	for i, off := range offsets {
		if w := off - time.Since(p.t0); w > 0 {
			sleep(w)
		}
		id, tmpl := p.add(off)
		queues[i%cfg.Streams] <- [2]int32{int32(id), tmpl}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return p.result()
}

// Poisson returns the arrival schedule of an open phase: exponential
// gaps at the given rate until d, fixed by the seed.
func Poisson(seed int64, rate float64, d time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	var offs []time.Duration
	for t := r.ExpFloat64() / rate; t < d.Seconds(); t += r.ExpFloat64() / rate {
		offs = append(offs, time.Duration(t*float64(time.Second)))
	}
	return offs
}

// Quantile is the nearest-rank q-quantile of an ascending-sorted
// sample: the smallest value with at least q of the sample at or below
// it. It is 0 for an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(q * float64(n))
	if float64(k) < q*float64(n) {
		k++ // ceil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}
