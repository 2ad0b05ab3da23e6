package service

import (
	"errors"
	"fmt"
	"testing"

	"gpulat/internal/runner"
)

func poolKeys(n int) []runner.JobKey {
	keys := make([]runner.JobKey, n)
	for i := range keys {
		keys[i] = testJob(i).Key()
	}
	return keys
}

// TestBackendPoolEmptyIsValid: an empty pool (no static -backends,
// waiting for runtime joins) routes nothing but is otherwise
// functional, and the first Join makes it routable.
func TestBackendPoolEmptyIsValid(t *testing.T) {
	for _, addrs := range [][]string{nil, {" ", ""}} {
		p := NewBackendPool(addrs)
		if p.Len() != 0 || p.Healthy() != 0 {
			t.Fatalf("pool over %q not empty: len=%d", addrs, p.Len())
		}
		if b := p.Route(testJob(0).Key(), nil); b != nil {
			t.Fatalf("empty pool routed to %s", b.Addr())
		}
		if p.Epoch() != 1 {
			t.Fatalf("initial epoch = %d, want 1", p.Epoch())
		}
	}
	p := NewBackendPool(nil)
	if _, epoch, _, _, joined := p.Join("a:1"); !joined || epoch != 2 {
		t.Fatalf("first join: joined=%v epoch=%d", joined, epoch)
	}
	if b := p.Route(testJob(0).Key(), nil); b == nil || b.Addr() != "http://a:1" {
		t.Fatalf("pool not routable after first join: %v", b)
	}
}

func TestBackendPoolNormalizesAndDedupes(t *testing.T) {
	p := NewBackendPool([]string{"127.0.0.1:1", "http://127.0.0.1:1/", "127.0.0.1:2"})
	if len(p.backends) != 2 {
		t.Fatalf("backends = %d, want 2 (dup collapsed)", len(p.backends))
	}
	if p.backends[0].Addr() != "http://127.0.0.1:1" {
		t.Fatalf("addr not normalized: %s", p.backends[0].Addr())
	}
}

// TestBackendPoolRoutingIsDeterministicAndSpread: same key → same
// backend on every call and across independently built pools, and a
// key population spreads over all backends.
func TestBackendPoolRoutingIsDeterministicAndSpread(t *testing.T) {
	addrs := []string{"10.0.0.1:9", "10.0.0.2:9", "10.0.0.3:9"}
	p1 := NewBackendPool(addrs)
	p2 := NewBackendPool(addrs)
	counts := map[string]int{}
	for _, key := range poolKeys(300) {
		a := p1.Route(key, nil)
		b := p2.Route(key, nil)
		if a == nil || b == nil || a.Addr() != b.Addr() {
			t.Fatalf("routing not deterministic for %s", key)
		}
		if a != p1.Route(key, nil) {
			t.Fatalf("routing not stable for %s", key)
		}
		counts[a.Addr()]++
	}
	for _, addr := range addrs {
		n := counts[normalizeBackendAddr(addr)]
		if n == 0 {
			t.Fatalf("backend %s owns no keys: %v", addr, counts)
		}
	}
}

// TestBackendPoolFailureOnlyRemapsOwnedKeys is the cache-affinity
// property consistent hashing buys: opening one backend's circuit
// remaps exactly the keys it owned — every other key keeps its backend.
func TestBackendPoolFailureOnlyRemapsOwnedKeys(t *testing.T) {
	p := NewBackendPool([]string{"a:1", "b:1", "c:1"})
	keys := poolKeys(300)
	before := map[runner.JobKey]string{}
	for _, key := range keys {
		before[key] = p.Route(key, nil).Addr()
	}
	dead := p.backends[1]
	dead.reportFailure(1, errors.New("down"), false)
	if dead.routable() {
		t.Fatal("circuit did not open at threshold")
	}
	remapped := 0
	for _, key := range keys {
		b := p.Route(key, nil)
		if b == nil || b == dead {
			t.Fatalf("key %s routed to dead backend", key)
		}
		if before[key] == dead.Addr() {
			remapped++
			continue
		}
		if b.Addr() != before[key] {
			t.Fatalf("key %s moved from healthy backend %s to %s", key, before[key], b.Addr())
		}
	}
	if remapped == 0 {
		t.Fatal("dead backend owned no keys — degenerate test population")
	}
	// Recovery closes the circuit and restores the original placement.
	dead.reportSuccess(false)
	for _, key := range keys {
		if p.Route(key, nil).Addr() != before[key] {
			t.Fatalf("placement of %s not restored after recovery", key)
		}
	}
}

func TestBackendPoolRouteAvoidAndExhaustion(t *testing.T) {
	p := NewBackendPool([]string{"a:1", "b:1"})
	key := testJob(0).Key()
	owner := p.Route(key, nil)
	other := p.Route(key, owner)
	if other == nil || other == owner {
		t.Fatalf("avoid not honored: owner=%v other=%v", owner, other)
	}
	// With the other backend down, avoid's sole survivor is returned
	// anyway — retrying the last routable backend beats failing the job.
	other.reportFailure(1, errors.New("down"), false)
	if got := p.Route(key, owner); got != owner {
		t.Fatalf("sole survivor not returned: %v", got)
	}
	owner.reportFailure(1, errors.New("down"), false)
	if got := p.Route(key, nil); got != nil {
		t.Fatalf("all-down pool routed to %s", got.Addr())
	}
	if p.Healthy() != 0 {
		t.Fatalf("healthy = %d", p.Healthy())
	}
}

// TestBackendCircuitProbeAndCallStreaksAreIndependent: a backend whose
// /v1/healthz answers happily while its job handling is broken must
// still fail out — succeeding probes must not reset the call-failure
// streak. And once the circuit is open, a good probe is the recovery
// path that closes it.
func TestBackendCircuitProbeAndCallStreaksAreIndependent(t *testing.T) {
	p := NewBackendPool([]string{"a:1"})
	b := p.backends[0]
	for i := 0; i < 2; i++ {
		b.reportFailure(3, errors.New("jobs wedged"), false)
		b.reportSuccess(true) // chirpy healthz in between
	}
	if !b.routable() {
		t.Fatal("circuit opened before the call threshold")
	}
	b.reportFailure(3, errors.New("jobs wedged"), false)
	if b.routable() {
		t.Fatal("third consecutive call failure did not open the circuit despite healthy probes")
	}
	// Recovery: with the circuit open, a good probe closes it and
	// resets both streaks.
	b.reportSuccess(true)
	if !b.routable() {
		t.Fatal("good probe did not close the open circuit")
	}
	if p.Statuses()[0].ConsecutiveFailures != 0 {
		t.Fatalf("recovery did not reset streaks: %+v", p.Statuses()[0])
	}
}

func TestBackendStatusSnapshot(t *testing.T) {
	p := NewBackendPool([]string{"a:1"})
	b := p.backends[0]
	b.reportFailure(2, fmt.Errorf("boom"), false)
	sts := p.Statuses()
	if len(sts) != 1 || !sts[0].Healthy || sts[0].Circuit != "closed" || sts[0].ConsecutiveFailures != 1 {
		t.Fatalf("one failure below threshold: %+v", sts[0])
	}
	b.reportFailure(2, fmt.Errorf("boom again"), false)
	sts = p.Statuses()
	if sts[0].Healthy || sts[0].Circuit != "open" || sts[0].LastError == "" {
		t.Fatalf("circuit not reported open: %+v", sts[0])
	}
}
