package net

import (
	"dima/internal/graph"
	"dima/internal/msg"
)

// Cluster wire codec hooks for the external tests: the frame fuzzers
// round-trip payloads through the strict decoders, and the node tests
// speak the coordinator's half of the protocol to ServeNode.

const (
	FrameHello   = frameHello
	FrameWelcome = frameWelcome
	FrameReady   = frameReady
	FrameRound   = frameRound
	FrameOutbox  = frameOutbox
	FrameState   = frameState
	FrameError   = frameError
)

var (
	AppendHalo  = appendHalo
	AppendRound = appendRound
	DecodeRound = decodeRound
	AppendState = appendState
	DecodeState = decodeState
)

// AppendWelcome appends a welcome frame payload.
func AppendWelcome(buf []byte, factory string, spec []byte, shards, lo, hi int, g *graph.Graph) []byte {
	return welcome{factory: factory, spec: spec, shards: shards, lo: lo, hi: hi, g: g}.append(buf)
}

// DecodeOutbox and AppendOutbox carry an outbox's broadcasts as
// parallel sender and message slices.
func DecodeOutbox(buf []byte) (round int, done bool, from []int, ms []msg.Message, err error) {
	round, done, bs, err := decodeOutbox(buf, nil)
	for _, b := range bs {
		from = append(from, b.from)
		ms = append(ms, b.m)
	}
	return round, done, from, ms, err
}

func AppendOutbox(buf []byte, round int, done bool, from []int, ms []msg.Message) []byte {
	bs := make([]broadcast, len(from))
	for i := range bs {
		bs[i] = broadcast{from: from[i], m: ms[i]}
	}
	return appendOutbox(buf, round, done, bs)
}
