package msg

import "math/bits"

// Sort sorts msgs in place into the canonical Less order, the order in
// which every engine hands a node its inbox. RunChan sorts each inbox
// with it, because its arrival order is nondeterministic. RunSync,
// RunShard and the tcp engine instead sort a copy of each outbox that
// is not already in order (see IsSorted): they deliver in ascending
// sender id, so sorted outboxes yield sorted inboxes.
//
// The implementation is specialized to []Message — no reflection, no
// interface dispatch — because it sits on a hot path. Batches are short
// (at most one message per neighbor per phase for an inbox, a few for
// an outbox), so the common case is the insertion sort; larger ones
// take a median-of-three quicksort with a depth bound and a heapsort
// fallback, keeping the worst case O(n log n).
func Sort(msgs []Message) {
	if len(msgs) < 2 {
		return
	}
	quickSortMsgs(msgs, 2*bits.Len(uint(len(msgs))))
}

// IsSorted reports whether msgs is already in Less order (ties
// allowed). Empty and one-element slices are sorted.
func IsSorted(msgs []Message) bool {
	for i := 1; i < len(msgs); i++ {
		if Less(msgs[i], msgs[i-1]) {
			return false
		}
	}
	return true
}

// sortSmallMax is the slice length at or below which insertion sort is
// used directly.
const sortSmallMax = 16

func quickSortMsgs(s []Message, depth int) {
	for len(s) > sortSmallMax {
		if depth == 0 {
			heapSortMsgs(s)
			return
		}
		depth--
		p := partitionMsgs(s)
		// Recurse into the smaller side, iterate on the larger, so the
		// stack stays O(log n).
		if p < len(s)-p-1 {
			quickSortMsgs(s[:p], depth)
			s = s[p+1:]
		} else {
			quickSortMsgs(s[p+1:], depth)
			s = s[:p]
		}
	}
	insertionSortMsgs(s)
}

func insertionSortMsgs(s []Message) {
	for i := 1; i < len(s); i++ {
		m := s[i]
		j := i
		for j > 0 && Less(m, s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = m
	}
}

// partitionMsgs partitions s around a median-of-three pivot and returns
// the pivot's final index. Only called with len(s) > sortSmallMax.
func partitionMsgs(s []Message) int {
	hi := len(s) - 1
	mid := hi / 2
	// Order s[0] <= s[mid] <= s[hi], then park the median at hi-1.
	if Less(s[mid], s[0]) {
		s[0], s[mid] = s[mid], s[0]
	}
	if Less(s[hi], s[0]) {
		s[0], s[hi] = s[hi], s[0]
	}
	if Less(s[hi], s[mid]) {
		s[mid], s[hi] = s[hi], s[mid]
	}
	s[mid], s[hi-1] = s[hi-1], s[mid]
	pivot := s[hi-1]
	i := 0
	for j := 0; j < hi-1; j++ {
		if Less(s[j], pivot) {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[hi-1] = s[hi-1], s[i]
	return i
}

func heapSortMsgs(s []Message) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMsgs(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftDownMsgs(s, 0, i)
	}
}

func siftDownMsgs(s []Message, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && Less(s[c], s[c+1]) {
			c++
		}
		if !Less(s[root], s[c]) {
			return
		}
		s[root], s[c] = s[c], s[root]
		root = c
	}
}
