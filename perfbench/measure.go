package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// memSnap is the slice of runtime.MemStats the benchmark differences
// around a measured call.
type memSnap struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	pauseNs             uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
}

// heapLiveMB forces collections and returns the live heap in MB. The
// second cycle frees what the first only unlinked: sync.Pool victim
// caches and objects kept for finalizers, whose presence depends on
// timing.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/self/status.
func procStatusKB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// rssPeakMB is the process's peak resident set size (VmHWM) in MB.
func rssPeakMB() float64 { return procStatusKB("VmHWM") / 1024 }

// ioBytes is rchar+wchar from /proc/self/io: every byte the process
// moved through read/write system calls, sockets and pipes included.
func ioBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	var total int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && (k == "rchar" || k == "wchar") {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			total += n
		}
	}
	return total
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: total ticks
// and the steal ticks a hypervisor took from this machine's CPUs.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// cpuSeconds is the user+system CPU time consumed by this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// digest hashes a coloring so colorings from different engines or
// processes compare byte for byte.
func digest(colors []int) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range colors {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(c)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// stepTrace is a net.Engine wrapper that times every Node.Step from
// outside the protocol: each node is wrapped so the engine's own
// calls are clocked. Per-node durations are written only by the
// goroutine stepping that node, so the shard engine needs no locks.
type stepTrace struct {
	inner   net.Engine
	workers int // contiguous shards the engine splits the nodes into

	mu      sync.Mutex
	engineS float64       // wall time of the last engine call
	stepNs  []int64       // per-node Step time of the last call
	outbox  []msg.Message // captureRound's broadcasts, for the codec probe
}

type timedNode struct {
	net.Node
	ns *int64
	t  *stepTrace
}

func (n timedNode) Step(round int, inbox []msg.Message) []msg.Message {
	t0 := time.Now()
	out := n.Node.Step(round, inbox)
	*n.ns += int64(time.Since(t0))
	if round == captureRound && len(out) > 0 {
		n.t.mu.Lock()
		n.t.outbox = append(n.t.outbox, out...)
		n.t.mu.Unlock()
	}
	return out
}

// captureRound is the communication round whose outbox the codec
// probe encodes: past the first invitations, inside the busy phase.
const captureRound = 3

func newStepTrace(inner net.Engine, workers int) *stepTrace {
	return &stepTrace{inner: inner, workers: max(workers, 1)}
}

// Engine returns the wrapping engine.
func (t *stepTrace) Engine(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
	t.stepNs = make([]int64, len(nodes))
	t.outbox = t.outbox[:0]
	wrapped := make([]net.Node, len(nodes))
	for i, n := range nodes {
		wrapped[i] = timedNode{Node: n, ns: &t.stepNs[i], t: t}
	}
	start := time.Now()
	res, err := t.inner(g, wrapped, cfg)
	t.engineS = time.Since(start).Seconds()
	return res, err
}

// split reports the last call's Σ Step time, the Step time of the
// busiest contiguous shard (the Step share of the engine's critical
// path) and the max/mean Step imbalance across shards. Shards follow
// the engines' split: shard s owns [s·n/W, (s+1)·n/W).
func (t *stepTrace) split() (total, busiest, imbalance float64) {
	n := len(t.stepNs)
	w := min(t.workers, max(n, 1))
	per := make([]float64, w)
	for s := 0; s < w; s++ {
		for u := s * n / w; u < (s+1)*n/w; u++ {
			per[s] += float64(t.stepNs[u]) / 1e9
		}
	}
	for _, p := range per {
		total += p
		busiest = max(busiest, p)
	}
	if total > 0 {
		imbalance = busiest / (total / float64(w))
	}
	return total, busiest, imbalance
}

// codecProbe times the tcp engine's wire codec on a captured round
// outbox: ns per message to encode (msg.AppendMessages) and decode
// (msg.DecodeMessages), repeated until about budget has passed.
func codecProbe(out []msg.Message, budget time.Duration) (encNs, decNs float64, err error) {
	if len(out) == 0 {
		return 0, 0, nil
	}
	buf := msg.AppendMessages(nil, out)
	var encT, decT time.Duration
	reps := 0
	for encT+decT < budget {
		t0 := time.Now()
		buf = msg.AppendMessages(buf[:0], out)
		t1 := time.Now()
		back, derr := msg.DecodeMessages(buf)
		t2 := time.Now()
		if derr != nil {
			return 0, 0, derr
		}
		if len(back) != len(out) {
			return 0, 0, fmt.Errorf("codec round trip decoded %d of %d messages", len(back), len(out))
		}
		encT += t1.Sub(t0)
		decT += t2.Sub(t1)
		reps++
	}
	per := float64(reps * len(out))
	return float64(encT.Nanoseconds()) / per, float64(decT.Nanoseconds()) / per, nil
}
