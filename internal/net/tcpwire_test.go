package net_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	stdnet "net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
)

// startNode runs ServeNode for shard of shards over an in-memory pipe
// and plays the coordinator up to the ready frame: it reads the hello,
// sends a welcome for the gossip protocol on g, and waits for ready.
func startNode(t *testing.T, g *graph.Graph, shard, shards int) (stdnet.Conn, *msg.FrameReader, <-chan error) {
	t.Helper()
	coord, node := stdnet.Pipe()
	t.Cleanup(func() { coord.Close() })
	errc := make(chan error, 1)
	go func() { errc <- net.ServeNode(node, shard, shards, 0) }()
	coord.SetDeadline(time.Now().Add(10 * time.Second))
	fr := msg.NewFrameReader(coord, 0)
	if _, _, err := fr.Next(); err != nil {
		t.Fatalf("read hello: %v", err)
	}
	lo, hi := shard*g.N()/shards, (shard+1)*g.N()/shards
	welcome := net.AppendWelcome(nil, "test/gossip/v1", gossipSpec(3), shards, lo, hi, g)
	if err := msg.WriteFrame(coord, net.FrameWelcome, welcome); err != nil {
		t.Fatalf("send welcome: %v", err)
	}
	if kind, _, err := fr.Next(); err != nil || kind != net.FrameReady {
		t.Fatalf("want ready frame, got kind %d err %v", kind, err)
	}
	return coord, fr, errc
}

// halo hand-encodes one round-frame record: sender, message, drop list.
func halo(buf []byte, from int, drops ...int) []byte {
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = msg.Message{Kind: msg.KindInvite, From: from, To: msg.Broadcast, Edge: from}.Append(buf)
	buf = binary.AppendUvarint(buf, uint64(len(drops)))
	for _, v := range drops {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// roundFrame hand-encodes a round frame for round 0 holding count
// records, followed by any extra bytes.
func roundFrame(count int, records []byte) []byte {
	return append(binary.AppendUvarint([]byte{0}, uint64(count)), records...)
}

// TestServeNodeRejectsBadRoundFrames drives the node half of the
// protocol with hand-built round frames. testGraph(12) split in two
// gives shard 1 the vertices [6, 12); vertex 6's neighbors there are 7
// and 9, vertex 5's is 6, and vertex 0 has none.
func TestServeNodeRejectsBadRoundFrames(t *testing.T) {
	g := testGraph(12)
	t.Run("accepts", func(t *testing.T) {
		coord, fr, errc := startNode(t, g, 1, 2)
		frame := roundFrame(3, halo(halo(halo(nil, 4), 6, 9), 6))
		if err := msg.WriteFrame(coord, net.FrameRound, frame); err != nil {
			t.Fatal(err)
		}
		kind, payload, err := fr.Next()
		if err != nil || kind != net.FrameOutbox {
			t.Fatalf("want outbox frame, got kind %d err %v", kind, err)
		}
		if _, _, from, _, err := net.DecodeOutbox(payload); err != nil || len(from) != 6 {
			t.Fatalf("outbox: %d broadcasts, err %v", len(from), err)
		}
		coord.Close()
		<-errc
	})
	bad := []struct {
		name, want string
		frame      []byte
	}{
		{"sender out of order", "halo sender 4 after sender 6", roundFrame(2, halo(halo(nil, 6), 4))},
		{"sender out of range", "halo sender 12 out of range", roundFrame(1, halo(nil, 12))},
		{"drop not a local neighbor", "drops vertex 8, not an in-order neighbor", roundFrame(1, halo(nil, 6, 8))},
		{"drops out of adjacency order", "drops vertex 7, not an in-order neighbor", roundFrame(1, halo(nil, 6, 9, 7))},
		{"every local delivery dropped", "has no surviving delivery", roundFrame(1, halo(nil, 5, 6))},
		{"sender without local neighbors", "has no surviving delivery", roundFrame(1, halo(nil, 0))},
		{"trailing bytes", "1 trailing bytes after round frame", append(roundFrame(1, halo(nil, 6)), 0)},
		{"record count too high", "truncated halo sender", roundFrame(2, halo(nil, 6))},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			coord, fr, errc := startNode(t, g, 1, 2)
			if err := msg.WriteFrame(coord, net.FrameRound, tc.frame); err != nil {
				t.Fatal(err)
			}
			kind, payload, err := fr.Next()
			if err != nil || kind != net.FrameError {
				t.Fatalf("want error frame, got kind %d err %v", kind, err)
			}
			nerr := <-errc
			if nerr == nil || !strings.Contains(nerr.Error(), tc.want) {
				t.Fatalf("ServeNode returned %v, want an error containing %q", nerr, tc.want)
			}
			if string(payload) != nerr.Error() {
				t.Errorf("error frame %q, ServeNode returned %q", payload, nerr)
			}
		})
	}
}

// tapConn records the bytes a node reads from and writes to its
// coordinator connection.
type tapConn struct {
	stdnet.Conn
	in, out bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// captured holds the payloads of every frame of one real 3-shard run,
// keyed by frame kind: the seed corpus of the cluster frame fuzzers.
var captured struct {
	once   sync.Once
	frames map[msg.FrameKind][][]byte
	bounds [][2]int // vertex range of each state frame, in frame order
	err    error
}

// capturedFrames runs reverseNode on an External-mode 3-shard cluster
// whose nodes are in-process ServeNode calls over tapped connections,
// under DropRate so round frames carry drop lists, and splits the
// recorded streams into frames.
func capturedFrames(tb testing.TB) map[msg.FrameKind][][]byte {
	captured.once.Do(func() {
		const shards, rounds = 3, 5
		g := testGraph(23)
		spec := binary.AppendUvarint(nil, rounds)
		addr := freeLoopbackAddr(tb)
		taps := make([]*tapConn, shards)
		var wg sync.WaitGroup
		for s := range taps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					conn, err := stdnet.Dial("tcp", addr)
					if err != nil {
						time.Sleep(20 * time.Millisecond)
						continue
					}
					taps[s] = &tapConn{Conn: conn}
					net.ServeNode(taps[s], s, shards, 0)
					return
				}
			}()
		}
		nodes, err := reverseFactory(g, spec, 0, g.N())
		if err == nil {
			tc := &net.TCPCluster{Nodes: shards, External: true, Listen: addr, BarrierTimeout: 10 * time.Second}
			_, err = net.RunTCP(tc, net.NodeSpec{Factory: "test/reverse/v1", Spec: spec}, g, nodes,
				net.Config{Fault: net.DropRate{Seed: 5, P: 0.3}})
		}
		wg.Wait()
		if err != nil {
			captured.err = err
			return
		}
		captured.frames = map[msg.FrameKind][][]byte{}
		for s, tap := range taps {
			if tap == nil {
				captured.err = errors.New("a node never connected")
				return
			}
			for _, stream := range []*bytes.Buffer{&tap.in, &tap.out} {
				fr := msg.NewFrameReader(stream, 0)
				for {
					kind, payload, err := fr.Next()
					if err != nil {
						break
					}
					captured.frames[kind] = append(captured.frames[kind], slices.Clone(payload))
					if kind == net.FrameState {
						captured.bounds = append(captured.bounds, [2]int{s * g.N() / shards, (s + 1) * g.N() / shards})
					}
				}
			}
		}
	})
	if captured.err != nil {
		tb.Fatalf("capture run: %v", captured.err)
	}
	return captured.frames
}

// FuzzDecodeRound: the round frame decoder never panics, and a frame
// it accepts re-encodes (AppendHalo, AppendRound) to the same bytes.
func FuzzDecodeRound(f *testing.F) {
	frames := capturedFrames(f)[net.FrameRound]
	var dropped bool
	for _, p := range frames {
		f.Add(p)
		net.DecodeRound(p, new([]int32), func(_ int, _ msg.Message, drops []int32) error {
			dropped = dropped || len(drops) > 0
			return nil
		})
	}
	if len(frames) == 0 || !dropped {
		f.Fatalf("capture holds %d round frames, drop lists seen: %v", len(frames), dropped)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		var records []byte
		count := 0
		round, err := net.DecodeRound(data, new([]int32), func(from int, m msg.Message, drops []int32) error {
			records = net.AppendHalo(records, from, m, drops)
			count++
			return nil
		})
		if err != nil {
			return
		}
		if again := net.AppendRound(nil, round, count, records); !bytes.Equal(again, data) {
			t.Fatalf("re-encoded round frame differs:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzDecodeOutbox: the outbox decoder never panics, and an outbox it
// accepts re-encodes to the same bytes.
func FuzzDecodeOutbox(f *testing.F) {
	frames := capturedFrames(f)[net.FrameOutbox]
	if len(frames) == 0 {
		f.Fatal("capture holds no outbox frames")
	}
	for _, p := range frames {
		f.Add(p)
	}
	f.Add([]byte{0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		round, done, from, ms, err := net.DecodeOutbox(data)
		if err != nil {
			return
		}
		if again := net.AppendOutbox(nil, round, done, from, ms); !bytes.Equal(again, data) {
			t.Fatalf("re-encoded outbox differs:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzDecodeState: the state decoder never panics, and a state frame
// it accepts for the vertex range [lo, lo+n) re-encodes to the same
// bytes.
func FuzzDecodeState(f *testing.F) {
	frames := capturedFrames(f)[net.FrameState]
	if len(frames) == 0 {
		f.Fatal("capture holds no state frames")
	}
	for i, p := range frames {
		lo, hi := captured.bounds[i][0], captured.bounds[i][1]
		f.Add(p, uint16(lo), uint16(hi-lo))
	}
	f.Add([]byte{0}, uint16(0), uint16(0))
	f.Add([]byte{1, 3, 0}, uint16(3), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, lo, n uint16) {
		var blobs [][]byte
		err := net.DecodeState(data, int(lo), int(lo)+int(n), func(_ int, blob []byte) error {
			blobs = append(blobs, blob)
			return nil
		})
		if err != nil {
			return
		}
		if len(blobs) != int(n) {
			t.Fatalf("restored %d entries, want %d", len(blobs), n)
		}
		if again := net.AppendState(nil, int(lo), blobs); !bytes.Equal(again, data) {
			t.Fatalf("re-encoded state frame differs:\n in  %x\n out %x", data, again)
		}
	})
}

// TestRunTCPRejectsBadOutboxes plays a misbehaving node against a real
// coordinator in External mode: an outbox whose senders descend, or
// whose state frame runs past the shard, fails the run with a
// NodeError instead of being routed or restored.
func TestRunTCPRejectsBadOutboxes(t *testing.T) {
	g := testGraph(6)
	cases := []struct {
		name, want string
		reply      func(conn stdnet.Conn, fr *msg.FrameReader) error
	}{
		{"senders descend", "out of order", func(conn stdnet.Conn, fr *msg.FrameReader) error {
			ms := []msg.Message{{Kind: msg.KindInvite, From: 3}, {Kind: msg.KindInvite, From: 2}}
			return msg.WriteFrame(conn, net.FrameOutbox, net.AppendOutbox(nil, 0, false, []int{3, 2}, ms))
		}},
		{"state past the shard", "state for 7 vertices, want 6", func(conn stdnet.Conn, fr *msg.FrameReader) error {
			if err := msg.WriteFrame(conn, net.FrameOutbox, net.AppendOutbox(nil, 0, true, nil, nil)); err != nil {
				return err
			}
			if _, _, err := fr.Next(); err != nil { // harvest
				return err
			}
			blobs := make([][]byte, g.N()+1)
			for i := range blobs {
				blobs[i] = (&gossipNode{}).AppendState(nil)
			}
			return msg.WriteFrame(conn, net.FrameState, net.AppendState(nil, 0, blobs))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer leakCheck(t)()
			addr := freeLoopbackAddr(t)
			fake := make(chan error, 1)
			go func() {
				var conn stdnet.Conn
				var err error
				for i := 0; i < 200; i++ {
					if conn, err = stdnet.Dial("tcp", addr); err == nil {
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
				if err != nil {
					fake <- err
					return
				}
				defer conn.Close()
				fr := msg.NewFrameReader(conn, 0)
				steps := []func() error{
					func() error {
						return msg.WriteFrame(conn, net.FrameHello, msg.Hello{Shard: 0, Shards: 1}.Append(nil))
					},
					func() error { _, _, err := fr.Next(); return err }, // welcome
					func() error { return msg.WriteFrame(conn, net.FrameReady, nil) },
					func() error { _, _, err := fr.Next(); return err }, // round 0
					func() error { return tc.reply(conn, fr) },
				}
				for _, step := range steps {
					if err := step(); err != nil {
						fake <- err
						return
					}
				}
				fake <- nil
			}()
			tc1 := &net.TCPCluster{Nodes: 1, External: true, Listen: addr, BarrierTimeout: 10 * time.Second}
			_, err := net.RunTCP(tc1, net.NodeSpec{Factory: "test/gossip/v1", Spec: gossipSpec(3)},
				g, gossipNodes(g, 3), net.Config{})
			if ferr := <-fake; ferr != nil {
				t.Fatalf("fake node: %v", ferr)
			}
			var ne *net.NodeError
			if !errors.As(err, &ne) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunTCP returned %v, want a NodeError containing %q", err, tc.want)
			}
		})
	}
}
