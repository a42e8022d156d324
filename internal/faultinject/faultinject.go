// Package faultinject is the deterministic chaos layer for the
// distributed stage 2. The companion Hadoop work (PAPERS.md, arXiv
// 1311.5686) gets its fault tolerance "for free" from the framework;
// reproducing that property here requires the opposite of free — a
// failure model we can *pin in tests*. A Plan is a pure function of
// (seed, rules, per-site attempt index): the decision whether shard
// read N fails on attempt k, whether node K is dead after its T-th
// task, or how long split S's first run is delayed never consults wall
// clocks or global state, so a chaos scenario replays byte-for-byte
// for any fixed access interleaving — and the engines it is injected
// into are required (by the equivalence suites) to produce bit-identical
// results under *any* interleaving.
//
// The hooks are shaped for their injection points:
//
//   - DiskRead(dataset, part, node)  → diskstore read attempts
//   - NodeTask(node)                 → mapreduce lane workers, per task
//   - SplitDelay(split)              → mapreduce task execution, per run
//
// A nil *Plan is valid everywhere and injects nothing, so production
// paths pay one nil check.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks a shard-read failure manufactured by a Plan. It is
// deliberately not wrapped as a corruption error: callers exercise the
// same retry/failover paths a real I/O error would take.
var ErrInjected = errors.New("faultinject: injected shard-read failure")

// ErrNodeLost marks a lane worker retired by a KillNode rule. The
// mapreduce scheduler treats it as the node leaving the cluster, not as
// a task failure: the worker exits and its splits are stolen.
var ErrNodeLost = errors.New("faultinject: node lost")

// Any matches every shard or node in a rule field.
const Any = -1

// Rule is one injected failure. Rules are data; all decision logic
// lives in Plan so determinism is auditable in one place.
type Rule interface{ isRule() }

// FailShardRead fails the first Attempts read attempts of one shard
// (or every shard, with Shard == Any). Node restricts the failure to
// one replica's storage node (Any = every replica), which is how tests
// pin "replica 0 is torn, replica 1 is healthy". Attempt indices are
// per (dataset, shard, node), so a retry or a failover sees a fresh
// decision.
type FailShardRead struct {
	Shard    int
	Node     int
	Attempts int
}

func (FailShardRead) isRule() {}

// FailShardReadRate fails each shard-read attempt independently with
// probability Rate. The draw hashes (seed, dataset, shard, node,
// attempt index), so a fixed access sequence replays exactly.
type FailShardReadRate struct {
	Rate float64
}

func (FailShardReadRate) isRule() {}

// KillNode retires node Node after it has started AfterTasks tasks
// (0 = dead on arrival). Logical task counts stand in for the wall
// time T of the scenario description — same shape, reproducible.
type KillNode struct {
	Node       int
	AfterTasks int
}

func (KillNode) isRule() {}

// DelaySplit stretches split Split's first execution by Delay,
// manufacturing a straggler. Only the first run is delayed so a
// speculative backup attempt runs at full speed and can win.
type DelaySplit struct {
	Split int
	Delay time.Duration
}

func (DelaySplit) isRule() {}

// Plan is a compiled, seeded fault-injection plan. All methods are
// safe for concurrent use; the only mutable state is per-site attempt
// counters behind one mutex (injection sits on I/O paths, so the lock
// is noise). The zero Plan and the nil Plan inject nothing.
type Plan struct {
	seed  uint64
	fails []FailShardRead
	rate  float64
	kills map[int]int // node -> tasks allowed before death
	delay map[int]time.Duration

	mu        sync.Mutex
	readSeq   map[readSite]int // per-(dataset, shard, node) attempt counter
	nodeTasks map[int]int

	injected atomic.Int64
}

type readSite struct {
	dataset string
	part    int
	node    int
}

// New compiles rules into a Plan. Multiple rules compose: a read
// attempt fails if any FailShardRead matches or the rate draw fires.
func New(seed uint64, rules ...Rule) *Plan {
	p := &Plan{
		seed:      seed,
		kills:     map[int]int{},
		delay:     map[int]time.Duration{},
		readSeq:   map[readSite]int{},
		nodeTasks: map[int]int{},
	}
	for _, r := range rules {
		switch r := r.(type) {
		case FailShardRead:
			p.fails = append(p.fails, r)
		case FailShardReadRate:
			if r.Rate > p.rate {
				p.rate = r.Rate
			}
		case KillNode:
			if cur, ok := p.kills[r.Node]; !ok || r.AfterTasks < cur {
				p.kills[r.Node] = r.AfterTasks
			}
		case DelaySplit:
			if r.Delay > p.delay[r.Split] {
				p.delay[r.Split] = r.Delay
			}
		}
	}
	return p
}

// DiskRead decides the fate of one shard-read attempt. It is wired
// into diskstore via Store.SetReadFault. Manifest partitions (datasets
// ending in ".manifest") are exempt: the manifest is the spill's commit
// record, and losing it is the crashed-spill case OpenDiskSource
// already refuses — chaos targets data shards.
func (p *Plan) DiskRead(dataset string, part, node int) error {
	if p == nil || strings.HasSuffix(dataset, ".manifest") {
		return nil
	}
	p.mu.Lock()
	site := readSite{dataset, part, node}
	attempt := p.readSeq[site]
	p.readSeq[site] = attempt + 1
	p.mu.Unlock()

	for _, f := range p.fails {
		if (f.Shard == Any || f.Shard == part) &&
			(f.Node == Any || f.Node == node) &&
			attempt < f.Attempts {
			p.injected.Add(1)
			return fmt.Errorf("%w: %s shard %d node %d attempt %d",
				ErrInjected, dataset, part, node, attempt)
		}
	}
	if p.rate > 0 {
		h := splitmix64(p.seed ^ hashString(dataset) ^
			uint64(part)*0x9e3779b97f4a7c15 ^
			uint64(node)*0xc2b2ae3d27d4eb4f ^
			uint64(attempt)*0x165667b19e3779f9)
		if float64(h>>11)/(1<<53) < p.rate {
			p.injected.Add(1)
			return fmt.Errorf("%w: %s shard %d node %d attempt %d (rate %.2f)",
				ErrInjected, dataset, part, node, attempt, p.rate)
		}
	}
	return nil
}

// NodeTask records that node is about to start a task and reports
// whether the node is still alive. Once a KillNode threshold passes,
// every subsequent call for that node returns ErrNodeLost.
func (p *Plan) NodeTask(node int) error {
	if p == nil {
		return nil
	}
	after, ok := p.kills[node]
	if !ok {
		return nil
	}
	p.mu.Lock()
	started := p.nodeTasks[node]
	dead := started >= after
	if !dead {
		p.nodeTasks[node] = started + 1
	}
	p.mu.Unlock()
	if dead {
		p.injected.Add(1)
		return fmt.Errorf("%w: node %d (after %d tasks)", ErrNodeLost, node, after)
	}
	return nil
}

// SplitDelay returns the injected straggler delay for split's first
// execution, and zero for every later (speculative or retried) run.
func (p *Plan) SplitDelay(split int) time.Duration {
	if p == nil {
		return 0
	}
	d, ok := p.delay[split]
	if !ok {
		return 0
	}
	p.mu.Lock()
	site := readSite{"\x00delay", split, 0}
	run := p.readSeq[site]
	p.readSeq[site] = run + 1
	p.mu.Unlock()
	if run > 0 {
		return 0
	}
	p.injected.Add(1)
	return d
}

// Injected reports how many faults the plan has fired so far — the
// ground truth chaos tests compare recovery counters against.
func (p *Plan) Injected() int64 {
	if p == nil {
		return 0
	}
	return p.injected.Load()
}

// Parse compiles a CLI/CI spec into a Plan. The spec is a
// comma-separated rule list:
//
//	rate=0.1          fail 10% of shard-read attempts
//	shard=3@2         fail shard 3's first 2 read attempts (shard=* for all)
//	kill=1@4          node 1 dies after starting 4 tasks
//	delay=2@50ms      split 2's first run is stretched by 50ms
//
// An empty spec returns a nil Plan (inject nothing).
func Parse(spec string, seed uint64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: rule %q: want key=value", field)
		}
		switch key {
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || !(r >= 0 && r <= 1) {
				return nil, fmt.Errorf("faultinject: rate %q: want a probability in [0,1]", val)
			}
			rules = append(rules, FailShardReadRate{Rate: r})
		case "shard":
			at, n, err := parseAt(val)
			if err != nil {
				return nil, fmt.Errorf("faultinject: shard rule %q: %v (want shard=P@N)", val, err)
			}
			rules = append(rules, FailShardRead{Shard: at, Node: Any, Attempts: n})
		case "kill":
			at, n, err := parseAt(val)
			if err != nil || at == Any {
				return nil, fmt.Errorf("faultinject: kill rule %q: want kill=NODE@TASKS", val)
			}
			rules = append(rules, KillNode{Node: at, AfterTasks: n})
		case "delay":
			target, dur, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faultinject: delay rule %q: want delay=SPLIT@DURATION", val)
			}
			split, err := strconv.Atoi(target)
			if err != nil {
				return nil, fmt.Errorf("faultinject: delay split %q: %v", target, err)
			}
			d, err := time.ParseDuration(dur)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: delay duration %q: want a positive duration", dur)
			}
			rules = append(rules, DelaySplit{Split: split, Delay: d})
		default:
			return nil, fmt.Errorf("faultinject: unknown rule %q (want rate/shard/kill/delay)", key)
		}
	}
	return New(seed, rules...), nil
}

// parseAt splits "P@N" into (P, N); P may be "*" for Any.
func parseAt(s string) (target, count int, err error) {
	ts, cs, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, errors.New("missing '@'")
	}
	if ts == "*" {
		target = Any
	} else if target, err = strconv.Atoi(ts); err != nil {
		return 0, 0, err
	}
	if count, err = strconv.Atoi(cs); err != nil {
		return 0, 0, err
	}
	if count < 0 {
		return 0, 0, errors.New("negative count")
	}
	return target, count, nil
}

// splitmix64 is the finalizer from Vigna's SplitMix64 — a cheap,
// well-mixed hash so rate draws are uniform and attempt-independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
