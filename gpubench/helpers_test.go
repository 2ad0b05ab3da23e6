package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpulat/internal/runner"
	"gpulat/internal/service"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		label  string
		beyond int
	}{
		{1000, "p99", 10},
		{999, "p90", 99},
		{100, "p90", 10},
		{99, "p89.9", 10},
		{40, "p75", 10},
		{20, "p50", 10},
		{5, "p50", 2},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		got := tailOf(xs)
		if got.Label != tc.label || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %s with %d beyond of %d, want %s with %d beyond",
				tc.n, got.Label, got.Beyond, got.N, tc.label, tc.beyond)
		}
		if got.Beyond < minBeyond && tc.n > 2*minBeyond {
			t.Errorf("n=%d: only %d samples beyond %s", tc.n, got.Beyond, got.Label)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailOf(xs).Value; got < 990.0099 || got > 990.0101 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const span = 10 * time.Second
	a := poissonSchedule(newRand(7, 0), 400, span)
	b := poissonSchedule(newRand(7, 0), 400, span)
	c := poissonSchedule(newRand(8, 0), 400, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, d := range a {
		if d < 0 || d >= span || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v: not sorted within [0, %v)", i, d, span)
		}
	}
}

func TestPlanSvcIsSeededAndMixed(t *testing.T) {
	pop, s1 := planSvc(3, 5*time.Second, 2)
	pop2, s2 := planSvc(3, 5*time.Second, 2)
	if !reflect.DeepEqual(pop, pop2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave different plans")
	}
	inPop := map[runner.JobKey]bool{}
	for _, j := range pop {
		inPop[j.Key()] = true
	}
	if len(inPop) != svcPopulation {
		t.Fatalf("population has %d distinct points, want %d", len(inPop), svcPopulation)
	}
	fresh := map[runner.JobKey]bool{}
	for _, s := range s1 {
		n := len(s.due)
		if n != svcRate*5 {
			t.Fatalf("window offers %d requests, want %d", n, svcRate*5)
		}
		misses := 0
		for i, j := range s.jobs {
			k := j.Key()
			switch {
			case s.miss[i]:
				misses++
				if inPop[k] || fresh[k] {
					t.Fatalf("request %d: fresh point repeats an earlier one", i)
				}
				fresh[k] = true
			case !inPop[k]:
				t.Fatalf("request %d: repeat outside the population", i)
			}
		}
		if want := int(float64(n)*svcMissShare + 0.5); misses != want {
			t.Fatalf("window has %d misses, want %d", misses, want)
		}
	}
}

func TestLagsCountLatenessOnly(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	sent := []time.Duration{1 * ms, 10 * ms, 25 * ms, 29 * ms}
	got := lagsMS(due, sent)
	if want := []float64{1, 0, 5, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lags = %v, want %v", got, want)
	}
}

func TestMetricNames(t *testing.T) {
	for name, ok := range map[string]bool{
		"job_p50_ms": true, "gpu.ns_per_stepped_cycle": true, "a-b.c_d": true, "9x": true,
		"": false, "_x": false, ".x": false, "x y": false, "x/y": false, "ä": false,
		"a234567890123456789012345678901234567890123456789012345678901234":  true,
		"a2345678901234567890123456789012345678901234567890123456789012345": false,
	} {
		if validName(name) != ok {
			t.Errorf("validName(%q) = %v, want %v", name, !ok, ok)
		}
	}

	// Every metric the benchmark declares must be a valid name, and
	// the set must refuse a bad one.
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		if !validName(m.Name) {
			t.Errorf("BENCHMARK.json declares invalid metric name %q", m.Name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Metrics.set accepted an invalid name")
		}
	}()
	Metrics{}.set("bad name", "s", 1)
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(d int) time.Time { return tr.epoch.Add(time.Duration(d) * time.Millisecond) }
	root := tr.record("r", 0, "job", at(0), at(100))
	tr.record("r", root, "a", at(10), at(30))
	tr.record("r", root, "b", at(20), at(50))  // overlaps a
	tr.record("r", root, "c", at(90), at(120)) // runs past the parent
	child := tr.record("r", root, "d", at(60), at(70))
	tr.record("r", child, "e", at(61), at(69)) // grandchild: not the root's
	tr.record("other", 0, "job", at(0), at(5))

	spans := tr.Spans()
	ix := indexSpans(spans)
	r := spans[root-1]
	// Children cover [10,50] + [60,70] + [90,100] = 60ms of 100ms.
	if got := ix.selfTime(r); got != 40*time.Millisecond {
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := ix.coverage(r); got != 0.6 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
	if got := ix.selfTime(spans[child-1]); got != 2*time.Millisecond {
		t.Errorf("child self time = %v, want 2ms", got)
	}
	if got, n := sumByName(spans, "job"); got != 105*time.Millisecond || n != 2 {
		t.Errorf("sum of job spans = %v over %d, want 105ms over 2", got, n)
	}
}

func TestSvcTailIsMedianOfThirds(t *testing.T) {
	// 900 requests; the last third is slow, as under a host stall.
	sw := &svcWindow{}
	for i := 0; i < 900; i++ {
		lat := time.Duration(1+i%10) * time.Millisecond
		if i >= 600 {
			lat *= 10
		}
		due := time.Duration(i) * time.Millisecond
		sw.sched.due = append(sw.sched.due, due)
		sw.outs = append(sw.outs, outcome{done: due + lat})
	}
	got := sw.tail()
	if got.Label != "p90" || got.N != 300 || got.Value > 10 {
		t.Fatalf("tail = %+v, want the p90 of a fast third", got)
	}
}

// cannedTransport answers every request in memory with one status
// body, without a network.
type cannedTransport string

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(strings.NewReader(string(c))), Request: req}, nil
}

func TestSpanTransportTimesClientCalls(t *testing.T) {
	tr := newTracer()
	st := newSvcTrace(tr)
	root := tr.begin("req-1", 0, "request")
	st.roots["req-1"] = root
	rt := spanTransport{next: cannedTransport(`{"key":"k1","status":"running"}`), st: st}

	do := func(method, path, traceID string) {
		t.Helper()
		req, err := http.NewRequest(method, "http://tier"+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if traceID != "" {
			req.Header.Set(service.TraceHeader, traceID)
		}
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if body, _ := io.ReadAll(resp.Body); !strings.Contains(string(body), "running") {
			t.Fatalf("%s %s: body %q not passed through", method, path, body)
		}
		resp.Body.Close()
	}
	do(http.MethodPost, "/v1/jobs", "req-1")
	do(http.MethodGet, "/v1/jobs/k1", "req-1")
	do(http.MethodGet, "/v1/results/k1", "req-1")
	do(http.MethodGet, "/metrics", "req-1")       // not a client call: no span
	do(http.MethodGet, "/v1/jobs/k1", "untraced") // no root: no span
	tr.end(root)

	var names []string
	for _, s := range tr.Spans() {
		if s.ID == root {
			continue
		}
		if s.Parent != root || s.Req != "req-1" {
			t.Errorf("span %s: parent %d request %q, want %d and req-1", s.Name, s.Parent, s.Req, root)
		}
		names = append(names, s.Name)
	}
	if want := []string{"client.submit", "client.status", "client.result"}; !reflect.DeepEqual(names, want) {
		t.Errorf("spans = %v, want %v", names, want)
	}
	if st.polls != 1 || st.notDone != 1 {
		t.Errorf("polls = %d, not done = %d, want 1 and 1", st.polls, st.notDone)
	}
	if _, ok := st.seen["k1"]; !ok {
		t.Error("result fetch did not mark k1 seen")
	}
}
