package net

import (
	"encoding/binary"
	"fmt"
	"math"

	"dima/internal/graph"
	"dima/internal/msg"
)

// Cluster frame grammar (docs/CLUSTER.md). Every payload decoder here
// is strict: bytes left over after a successful parse are an error, so
// a codec mismatch between coordinator and node builds surfaces as a
// typed failure on the first divergent frame.
const (
	frameHello    msg.FrameKind = 0x01 // node → coord: msg.Hello
	frameWelcome  msg.FrameKind = 0x02 // coord → node: spec + graph + shard bounds
	frameReady    msg.FrameKind = 0x03 // node → coord: nodes constructed
	frameRound    msg.FrameKind = 0x04 // coord → node: round number + halo records
	frameOutbox   msg.FrameKind = 0x05 // node → coord: round number + broadcasts + done bit
	frameHarvest  msg.FrameKind = 0x06 // coord → node: export final node state
	frameState    msg.FrameKind = 0x07 // node → coord: per-vertex state blobs
	frameShutdown msg.FrameKind = 0x08 // coord → node: run over, exit 0
	frameError    msg.FrameKind = 0x09 // node → coord: fatal node-side error text
)

func frameKindName(k msg.FrameKind) string {
	switch k {
	case frameHello:
		return "hello"
	case frameWelcome:
		return "welcome"
	case frameReady:
		return "ready"
	case frameRound:
		return "round"
	case frameOutbox:
		return "outbox"
	case frameHarvest:
		return "harvest"
	case frameState:
		return "state"
	case frameShutdown:
		return "shutdown"
	case frameError:
		return "error"
	}
	return fmt.Sprintf("frame(%#x)", uint8(k))
}

// AppendGraph appends the binary graph section: uvarint vertex count,
// uvarint edge count, then one (u, v) uvarint pair per edge in edge-id
// order. Graphs with removal holes are rejected by the engines before
// any frame is built, so edge ids are dense. Exported because the
// dimaserve cluster (internal/cluster) ships job graphs in the same
// section format.
func AppendGraph(buf []byte, g *graph.Graph) []byte {
	buf = binary.AppendUvarint(buf, uint64(g.N()))
	buf = binary.AppendUvarint(buf, uint64(g.M()))
	for _, e := range g.Edges() {
		buf = binary.AppendUvarint(buf, uint64(e.U))
		buf = binary.AppendUvarint(buf, uint64(e.V))
	}
	return buf
}

// DecodeGraph parses the binary graph section from the front of buf,
// returning the graph and the unconsumed tail. Edge insertion order is
// the wire order, so edge ids match the sender's exactly.
func DecodeGraph(buf []byte) (*graph.Graph, []byte, error) {
	dec := msg.Cursor{Buf: buf}
	n := dec.Uvarint("vertex count")
	m := dec.Uvarint("edge count")
	if dec.Err != nil {
		return nil, nil, dec.Err
	}
	if n > 1<<31 {
		return nil, nil, fmt.Errorf("net: implausible vertex count %d", n)
	}
	// Each edge costs at least two bytes on the wire.
	if m > uint64(len(dec.Buf))/2 {
		return nil, nil, fmt.Errorf("net: implausible edge count %d for %d remaining bytes", m, len(dec.Buf))
	}
	g := graph.New(int(n))
	for i := uint64(0); i < m; i++ {
		u := dec.Uvarint("edge endpoint")
		v := dec.Uvarint("edge endpoint")
		if dec.Err != nil {
			return nil, nil, dec.Err
		}
		if u >= n || v >= n {
			return nil, nil, fmt.Errorf("net: edge %d endpoints (%d, %d) out of range for %d vertices", i, u, v, n)
		}
		if _, err := g.AddEdge(int(u), int(v)); err != nil {
			return nil, nil, fmt.Errorf("net: edge %d: %w", i, err)
		}
	}
	return g, dec.Buf, nil
}

// welcome is the coordinator's run description for one node process.
type welcome struct {
	factory string // registered NodeFactory name
	spec    []byte // opaque per-protocol options blob
	shards  int    // total shard count
	lo, hi  int    // this process's vertex range [lo, hi)
	g       *graph.Graph
}

func (w welcome) append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(w.factory)))
	buf = append(buf, w.factory...)
	buf = binary.AppendUvarint(buf, uint64(len(w.spec)))
	buf = append(buf, w.spec...)
	buf = binary.AppendUvarint(buf, uint64(w.shards))
	buf = binary.AppendUvarint(buf, uint64(w.lo))
	buf = binary.AppendUvarint(buf, uint64(w.hi))
	return AppendGraph(buf, w.g)
}

func decodeWelcome(buf []byte) (welcome, error) {
	var w welcome
	dec := msg.Cursor{Buf: buf}
	w.factory = string(dec.LenBytes("factory name"))
	w.spec = append([]byte(nil), dec.LenBytes("spec blob")...)
	w.shards = int(dec.Uvarint("shard count"))
	w.lo = int(dec.Uvarint("shard lo"))
	w.hi = int(dec.Uvarint("shard hi"))
	if dec.Err != nil {
		return w, dec.Err
	}
	g, rest, err := DecodeGraph(dec.Buf)
	if err != nil {
		return w, err
	}
	if len(rest) != 0 {
		return w, fmt.Errorf("net: %d trailing bytes after welcome frame", len(rest))
	}
	w.g = g
	if w.shards < 1 || w.lo < 0 || w.hi < w.lo || w.hi > g.N() {
		return w, fmt.Errorf("net: welcome shard range [%d, %d) of %d invalid for %d vertices",
			w.lo, w.hi, w.shards, g.N())
	}
	return w, nil
}

// appendHalo appends one halo record: uvarint sender, its message,
// uvarint drop count, then the dropped vertices. A record addresses
// one destination shard and stands for a delivery of m to every
// neighbor of from inside that shard except the listed ones, which
// the fault injector dropped; they appear in the sender's adjacency
// order. Reliable runs always send an empty drop list.
func appendHalo(buf []byte, from int, m msg.Message, drops []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = m.Append(buf)
	buf = binary.AppendUvarint(buf, uint64(len(drops)))
	for _, v := range drops {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// appendRound appends a round frame payload: uvarint round, uvarint
// record count, then the count halo records already encoded in
// records (appendHalo), in ascending sender order.
func appendRound(buf []byte, round, count int, records []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(round))
	buf = binary.AppendUvarint(buf, uint64(count))
	return append(buf, records...)
}

// decodeRound parses a round frame strictly, passing each halo record
// to halo(from, m, drops). drops is decoded into *scratch, which is
// reused across records: it is valid only during the call. Whether a
// record fits the receiving shard (sender range and order, drop list)
// is halo's check.
func decodeRound(buf []byte, scratch *[]int32, halo func(from int, m msg.Message, drops []int32) error) (round int, err error) {
	dec := msg.Cursor{Buf: buf}
	round = int(dec.Uvarint("round"))
	count := dec.Uvarint("record count")
	if dec.Err != nil {
		return 0, dec.Err
	}
	if count > uint64(len(dec.Buf)) {
		return 0, fmt.Errorf("net: implausible record count %d for %d remaining bytes", count, len(dec.Buf))
	}
	for i := uint64(0); i < count; i++ {
		from := dec.Uvarint("halo sender")
		if dec.Err != nil {
			return 0, dec.Err
		}
		m, used, err := msg.Decode(dec.Buf)
		if err != nil {
			return 0, fmt.Errorf("net: halo record %d of %d: %w", i, count, err)
		}
		dec.Buf = dec.Buf[used:]
		ndrops := dec.Uvarint("drop count")
		if dec.Err != nil {
			return 0, dec.Err
		}
		if ndrops > uint64(len(dec.Buf)) {
			return 0, fmt.Errorf("net: implausible drop count %d for %d remaining bytes", ndrops, len(dec.Buf))
		}
		drops := (*scratch)[:0]
		for j := uint64(0); j < ndrops; j++ {
			v := dec.Uvarint("dropped vertex")
			if v > math.MaxInt32 {
				return 0, fmt.Errorf("net: dropped vertex %d out of range", v)
			}
			drops = append(drops, int32(v))
		}
		*scratch = drops
		if dec.Err != nil {
			return 0, dec.Err
		}
		if err := halo(int(from), m, drops); err != nil {
			return 0, err
		}
	}
	if len(dec.Buf) != 0 {
		return 0, fmt.Errorf("net: %d trailing bytes after round frame", len(dec.Buf))
	}
	return round, nil
}

// outboxFlagDone marks a shard whose every node reported Done after
// stepping this round.
const outboxFlagDone = 1 << 0

// appendOutbox appends an outbox frame payload: uvarint round, a flags
// byte, uvarint broadcast count, then (uvarint sender vertex, message)
// pairs in the order the senders were stepped (ascending vertex id).
func appendOutbox(buf []byte, round int, done bool, bs []broadcast) []byte {
	buf = binary.AppendUvarint(buf, uint64(round))
	var flags byte
	if done {
		flags |= outboxFlagDone
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(bs)))
	for _, b := range bs {
		buf = binary.AppendUvarint(buf, uint64(b.from))
		buf = b.m.Append(buf)
	}
	return buf
}

// broadcast is one sent message paired with its sending vertex — the
// routing key the coordinator fans out over g.Neighbors(from).
type broadcast struct {
	from int
	m    msg.Message
}

// decodeOutbox parses an outbox frame strictly, appending its
// broadcasts to bs (a caller-owned buffer the coordinator reuses
// across shards and rounds) and returning the extended slice.
func decodeOutbox(buf []byte, bs []broadcast) (round int, done bool, _ []broadcast, err error) {
	dec := msg.Cursor{Buf: buf}
	round = int(dec.Uvarint("round"))
	flags := dec.Byte("flags")
	count := dec.Uvarint("broadcast count")
	if dec.Err != nil {
		return 0, false, nil, dec.Err
	}
	if flags&^byte(outboxFlagDone) != 0 {
		return 0, false, nil, fmt.Errorf("net: unknown outbox flag bits %#x", flags)
	}
	if count > uint64(len(dec.Buf)) {
		return 0, false, nil, fmt.Errorf("net: implausible broadcast count %d for %d remaining bytes", count, len(dec.Buf))
	}
	for i := uint64(0); i < count; i++ {
		from := dec.Uvarint("sender vertex")
		if dec.Err != nil {
			return 0, false, nil, dec.Err
		}
		m, used, err := msg.Decode(dec.Buf)
		if err != nil {
			return 0, false, nil, fmt.Errorf("net: broadcast %d of %d: %w", i, count, err)
		}
		dec.Buf = dec.Buf[used:]
		bs = append(bs, broadcast{from: int(from), m: m})
	}
	if len(dec.Buf) != 0 {
		return 0, false, nil, fmt.Errorf("net: %d trailing bytes after outbox frame", len(dec.Buf))
	}
	return round, flags&outboxFlagDone != 0, bs, nil
}

// appendState appends a state frame payload: uvarint blob count, then
// (uvarint vertex, uvarint length, blob) triples.
func appendState(buf []byte, lo int, blobs [][]byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(blobs)))
	for i, b := range blobs {
		buf = binary.AppendUvarint(buf, uint64(lo+i))
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// decodeState parses a state frame strictly, calling restore(vertex,
// blob) per entry. The entries must name exactly the vertices lo, lo+1,
// …, hi-1 in order, as appendState writes them for a shard. Blobs alias
// the payload buffer and must be consumed within the callback.
func decodeState(buf []byte, lo, hi int, restore func(vertex int, blob []byte) error) error {
	dec := msg.Cursor{Buf: buf}
	count := dec.Uvarint("state count")
	if dec.Err != nil {
		return dec.Err
	}
	if count != uint64(hi-lo) {
		return fmt.Errorf("net: state for %d vertices, want %d", count, hi-lo)
	}
	for v := lo; v < hi; v++ {
		vertex := dec.Uvarint("state vertex")
		blob := dec.LenBytes("state blob")
		if dec.Err != nil {
			return dec.Err
		}
		if vertex != uint64(v) {
			return fmt.Errorf("net: state for vertex %d, want %d", vertex, v)
		}
		if err := restore(v, blob); err != nil {
			return err
		}
	}
	if len(dec.Buf) != 0 {
		return fmt.Errorf("net: %d trailing bytes after state frame", len(dec.Buf))
	}
	return nil
}
