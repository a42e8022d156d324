package faultinject

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if err := p.DiskRead("yelt", 0, 0); err != nil {
		t.Fatalf("nil plan DiskRead: %v", err)
	}
	if err := p.NodeTask(0); err != nil {
		t.Fatalf("nil plan NodeTask: %v", err)
	}
	if d := p.SplitDelay(0); d != 0 {
		t.Fatalf("nil plan SplitDelay = %v", d)
	}
	if n := p.Injected(); n != 0 {
		t.Fatalf("nil plan Injected = %d", n)
	}
}

func TestFailShardReadBurnsAttempts(t *testing.T) {
	p := New(1, FailShardRead{Shard: 3, Node: Any, Attempts: 2})
	for attempt := 0; attempt < 2; attempt++ {
		if err := p.DiskRead("yelt", 3, 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: want ErrInjected, got %v", attempt, err)
		}
	}
	if err := p.DiskRead("yelt", 3, 0); err != nil {
		t.Fatalf("attempt 2 should succeed: %v", err)
	}
	if err := p.DiskRead("yelt", 2, 0); err != nil {
		t.Fatalf("unmatched shard should succeed: %v", err)
	}
	if got := p.Injected(); got != 2 {
		t.Fatalf("Injected = %d, want 2", got)
	}
}

func TestFailShardReadPerNodeCounters(t *testing.T) {
	// Node-scoped failure: replica on node 1 is bad, node 2 is healthy —
	// the shape of "failover picks the healthy replica".
	p := New(1, FailShardRead{Shard: 0, Node: 1, Attempts: 1})
	if err := p.DiskRead("yelt", 0, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("node 1 first read: want ErrInjected, got %v", err)
	}
	if err := p.DiskRead("yelt", 0, 2); err != nil {
		t.Fatalf("node 2 read should succeed: %v", err)
	}
}

func TestManifestReadsExempt(t *testing.T) {
	p := New(1, FailShardRead{Shard: Any, Node: Any, Attempts: 99},
		FailShardReadRate{Rate: 1})
	if err := p.DiskRead("yelt.manifest", 0, 0); err != nil {
		t.Fatalf("manifest read must be exempt, got %v", err)
	}
	if err := p.DiskRead("yelt", 0, 0); err == nil {
		t.Fatal("data shard read should fail")
	}
}

func TestRateIsDeterministicPerSite(t *testing.T) {
	// Two plans with the same seed must make identical decisions for
	// the same access sequence; a different seed must diverge somewhere.
	draw := func(seed uint64) []bool {
		p := New(seed, FailShardReadRate{Rate: 0.5})
		var out []bool
		for part := 0; part < 8; part++ {
			for attempt := 0; attempt < 8; attempt++ {
				out = append(out, p.DiskRead("yelt", part, 0) != nil)
			}
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := true
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !same {
		t.Fatal("same seed produced different fault sequences")
	}
	if !diverged {
		t.Fatal("different seeds produced identical fault sequences")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate 0.5 fired %d/%d times — not a rate", fired, len(a))
	}
}

func TestKillNodeAfterTasks(t *testing.T) {
	p := New(1, KillNode{Node: 1, AfterTasks: 2})
	for i := 0; i < 2; i++ {
		if err := p.NodeTask(1); err != nil {
			t.Fatalf("task %d on node 1 should start: %v", i, err)
		}
	}
	if err := p.NodeTask(1); !errors.Is(err, ErrNodeLost) {
		t.Fatalf("node 1 should be dead, got %v", err)
	}
	if err := p.NodeTask(1); !errors.Is(err, ErrNodeLost) {
		t.Fatal("death must be permanent")
	}
	if err := p.NodeTask(0); err != nil {
		t.Fatalf("node 0 unaffected: %v", err)
	}
}

func TestDelaySplitFirstRunOnly(t *testing.T) {
	p := New(1, DelaySplit{Split: 2, Delay: 50 * time.Millisecond})
	if d := p.SplitDelay(2); d != 50*time.Millisecond {
		t.Fatalf("first run delay = %v, want 50ms", d)
	}
	if d := p.SplitDelay(2); d != 0 {
		t.Fatalf("second run delay = %v, want 0 (backup runs at full speed)", d)
	}
	if d := p.SplitDelay(0); d != 0 {
		t.Fatalf("unmatched split delay = %v", d)
	}
}

func TestParse(t *testing.T) {
	p, err := Parse(goodSpecs[0], 7)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := p.DiskRead("yelt", 3, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("shard rule not compiled: %v", err)
	}
	for i := 0; i < 4; i++ {
		_ = p.NodeTask(1)
	}
	if err := p.NodeTask(1); !errors.Is(err, ErrNodeLost) {
		t.Fatal("kill rule not compiled")
	}
	if d := p.SplitDelay(2); d != 50*time.Millisecond {
		t.Fatalf("delay rule not compiled: %v", d)
	}

	if p, err := Parse("", 1); err != nil || p != nil {
		t.Fatalf("empty spec: want nil plan, got %v, %v", p, err)
	}
	if p, err := Parse("shard=*@1", 1); err != nil {
		t.Fatalf("wildcard shard: %v", err)
	} else if err := p.DiskRead("yelt", 9, 3); !errors.Is(err, ErrInjected) {
		t.Fatal("wildcard shard rule should match every shard")
	}
	for _, bad := range badSpecs {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// goodSpecs and badSpecs are the specs TestParse accepts and rejects;
// they seed FuzzParse.
var (
	goodSpecs = []string{"rate=0.1, shard=3@1, kill=1@4, delay=2@50ms", "", "shard=*@1"}
	badSpecs  = []string{"bogus", "what=1", "rate=2", "rate=x", "rate=NaN",
		"shard=3", "shard=x@1", "kill=*@1", "kill=1", "delay=1",
		"delay=x@50ms", "delay=1@zzz", "shard=1@-1"}
)

// Parse never panics, and every spec it accepts compiles to a valid
// plan: nil only for a blank spec, each rate rule's probability in
// [0,1] and carried into the plan, and no negative attempt count, task
// count or delay.
func FuzzParse(f *testing.F) {
	for _, s := range append(slices.Clone(goodSpecs), badSpecs...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec, 1)
		if err != nil {
			return
		}
		if p == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("Parse(%q) accepted a spec as an empty plan", spec)
			}
			return
		}
		if !(p.rate >= 0 && p.rate <= 1) {
			t.Fatalf("Parse(%q): rate %v", spec, p.rate)
		}
		for _, field := range strings.Split(spec, ",") {
			if key, val, _ := strings.Cut(strings.TrimSpace(field), "="); key == "rate" {
				if r, _ := strconv.ParseFloat(val, 64); !(p.rate >= r) {
					t.Fatalf("Parse(%q): plan rate %v below rule rate %v", spec, p.rate, r)
				}
			}
		}
		for _, r := range p.fails {
			if r.Attempts < 0 {
				t.Fatalf("Parse(%q): %+v", spec, r)
			}
		}
		for node, n := range p.kills {
			if n < 0 {
				t.Fatalf("Parse(%q): node %d dies after %d tasks", spec, node, n)
			}
		}
		for split, d := range p.delay {
			if d < 0 {
				t.Fatalf("Parse(%q): split %d delayed by %v", spec, split, d)
			}
		}
	})
}
