package load

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fake is a stand-in query service: it answers every request line with
// count = the line's id after a short delay, and records how many
// requests each POST had unanswered at once and how many POSTs it saw.
type fake struct {
	delay          time.Duration
	posts          atomic.Int64
	maxOutstanding atomic.Int64
}

func (f *fake) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.posts.Add(1)
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	var mu sync.Mutex
	var outstanding int64
	var wg sync.WaitGroup
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		var id int
		if _, err := fmt.Sscanf(sc.Text(), `{"id":%d,`, &id); err != nil {
			continue
		}
		mu.Lock()
		outstanding++
		if outstanding > f.maxOutstanding.Load() {
			f.maxOutstanding.Store(outstanding)
		}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(f.delay)
			mu.Lock()
			defer mu.Unlock()
			outstanding--
			fmt.Fprintf(w, `{"id":%d,"kind":"rq","count":%d,"latency_us":1}`+"\n", id, id)
			rc.Flush()
		}()
	}
	wg.Wait()
}

func config(t *testing.T, f *fake) Config {
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	return Config{
		Client:  srv.Client(),
		URL:     srv.URL,
		Pool:    [][]byte{[]byte(`{"rq":{"expr":"a"}}`), []byte(`{"rq":{"expr":"b"}}`)},
		Seq:     []int32{0, 1, 1, 0},
		Streams: 2,
		Check:   func(int, *Response) bool { return true },
	}
}

// everyIDOnce checks the accounting every phase must keep: each sent
// request answered exactly once, in the template order of Seq.
func everyIDOnce(t *testing.T, cfg Config, res Result) {
	t.Helper()
	if len(res.Errs) > 0 {
		t.Fatalf("phase errors: %v", res.Errs)
	}
	if len(res.Samples) == 0 || res.Failed() != 0 {
		t.Fatalf("%d samples, %d failed", len(res.Samples), res.Failed())
	}
	for i, s := range res.Samples {
		if want := cfg.Seq[(cfg.Base+i)%len(cfg.Seq)]; s.Tmpl != want {
			t.Fatalf("request %d used template %d, want %d", i, s.Tmpl, want)
		}
		if s.Done < s.Sent || s.Sent < s.Sched {
			t.Fatalf("request %d: sched %v, sent %v, done %v out of order", i, s.Sched, s.Sent, s.Done)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.05, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.95, 10}, {0.9, 9}, {1, 10},
	} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
	if got := Quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestPoissonIsFixedBySeed(t *testing.T) {
	a, b := Poisson(7, 1000, time.Second), Poisson(7, 1000, time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d = %v is late or out of order", i, a[i])
		}
	}
	if n := len(a); n < 850 || n > 1150 {
		t.Fatalf("1000/s for 1 s gave %d arrivals", n)
	}
	if c := Poisson(8, 1000, time.Second); len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Fatal("another seed gave the same schedule")
	}
}

func TestClosedLoopKeepsTheWindow(t *testing.T) {
	f := &fake{delay: 2 * time.Millisecond}
	cfg := config(t, f)
	const window = 5
	res := Closed(cfg, 150*time.Millisecond, window)
	everyIDOnce(t, cfg, res)
	if got := f.maxOutstanding.Load(); got != window {
		t.Fatalf("a stream had %d requests unanswered at once, want exactly the window %d", got, window)
	}
	if len(res.Samples) < 2*window {
		t.Fatalf("only %d requests in 150 ms", len(res.Samples))
	}
}

func TestOpenLoopSendsOnSchedule(t *testing.T) {
	// Responses take 20 ms and arrivals come every millisecond: an open
	// loop must not wait for the former to send the latter.
	f := &fake{delay: 20 * time.Millisecond}
	cfg := config(t, f)
	cfg.Base = 3
	var offs []time.Duration
	for i := 0; i < 60; i++ {
		offs = append(offs, time.Duration(i)*time.Millisecond)
	}
	res := Open(cfg, offs)
	everyIDOnce(t, cfg, res)
	if len(res.Samples) != len(offs) {
		t.Fatalf("%d samples for %d arrivals", len(res.Samples), len(offs))
	}
	if got := f.maxOutstanding.Load(); got < 5 {
		t.Fatalf("at most %d unanswered at once: the generator waited for answers", got)
	}
	for i, s := range res.Samples {
		if s.Sched != offs[i] {
			t.Fatalf("request %d scheduled at %v, want %v", i, s.Sched, offs[i])
		}
	}
}

func TestRotationLosesNoID(t *testing.T) {
	f := &fake{delay: time.Millisecond}
	cfg := config(t, f)
	cfg.Streams, cfg.Rotate = 1, 10*time.Millisecond
	res := Closed(cfg, 120*time.Millisecond, 4)
	everyIDOnce(t, cfg, res)
	if posts := f.posts.Load(); posts < 4 {
		t.Fatalf("%d POSTs in 120 ms at one rotation per 10 ms", posts)
	}
	if got := f.maxOutstanding.Load(); got > 4 {
		t.Fatalf("rotation let %d requests be unanswered at once, window is 4", got)
	}
}

func TestFailuresAreCounted(t *testing.T) {
	f := &fake{}
	cfg := config(t, f)
	cfg.Check = func(_ int, r *Response) bool { return r.Count%2 == 0 }
	res := Open(cfg, make([]time.Duration, 10))
	if got := res.Failed(); got != 5 {
		t.Fatalf("%d failed, want the 5 odd ids", got)
	}
}

func TestResponseHashIgnoresOrder(t *testing.T) {
	a, err := ParseResponse([]byte(`{"id":3,"kind":"rq","count":2,"pairs":[[1,2],[30,4]],"latency_us":5.5}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParseResponse([]byte(`{"id":3,"kind":"rq","count":2,"pairs":[[30,4],[1,2]],"latency_us":1}`))
	c, _ := ParseResponse([]byte(`{"id":3,"kind":"rq","count":2,"pairs":[[30,2],[1,4]],"latency_us":1}`))
	if a.Hash != b.Hash || a.Hash == c.Hash || a.Hash == 0 {
		t.Fatalf("hashes %x %x %x", a.Hash, b.Hash, c.Hash)
	}
	if want := PairHash(1, 2) + PairHash(30, 4); a.Hash != want {
		t.Fatalf("hash %x, want the sum of PairHash %x", a.Hash, want)
	}
	if a.ID != 3 || a.Count != 2 || a.LatencyUS != 5.5 {
		t.Fatalf("fields: %+v", a)
	}
	m, err := ParseResponse([]byte(`{"id":1,"kind":"pq","count":1,"match":[{"from":"A","to":"B","expr":"fn","pairs":[[4,9]]}],"latency_us":1}`))
	if err != nil || m.Hash != EdgeHash("A", "B", "fn", PairHash(4, 9)) {
		t.Fatalf("match hash %x, err %v", m.Hash, err)
	}
	e, _ := ParseResponse([]byte(`{"id":9,"error":"boom","error_kind":"shed","count":0,"latency_us":0}`))
	if e.Err != "boom" || e.ErrKind != "shed" {
		t.Fatalf("error fields: %+v", e)
	}
	if _, err := ParseResponse([]byte(`{"count":1}`)); err == nil {
		t.Fatal("a line without id must be an error")
	}
}
