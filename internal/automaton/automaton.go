// Package automaton implements the paper's matching-discovery automaton
// (Fig. 1): the states a compute node moves through during one
// computation round, the legal transitions between them, and shared
// helpers for the invite/listen/respond/wait message pattern.
//
// The automaton is the reusable heart of the paper's framework (their
// ref [3]): a computation round discovers a matching on the graph —
// pairs of neighbors that may compute together without conflict — and a
// problem-specific protocol (edge coloring, strong edge coloring,
// vertex cover, ...) rides on the discovered pairs. Packages core and
// matching build concrete protocols on this machine.
package automaton

import (
	"fmt"

	"dima/internal/msg"
)

// State is a node state of the matching-discovery automaton. The paper
// labels them C, I, L, W, R, U, D and adds E (Exchange) for the coloring
// algorithms.
type State uint8

const (
	// Choose (C): flip a fair coin to become an inviter or a listener.
	Choose State = iota
	// Invite (I): pick an available edge and proposal and broadcast an
	// invitation to the chosen neighbor.
	Invite
	// Listen (L): collect invitations broadcast by neighbors.
	Listen
	// Respond (R): accept at most one of the invitations addressed here
	// and broadcast the acceptance.
	Respond
	// Wait (W): collect responses, looking for an acceptance of the
	// invitation sent in Invite.
	Wait
	// Update (U): apply the outcome of the negotiation to local state.
	Update
	// Exchange (E): broadcast newly used colors / claims so neighbors'
	// one-hop knowledge stays current.
	Exchange
	// Done (D): all local work is complete; the node is inert.
	Done
)

var stateNames = [...]string{"C", "I", "L", "R", "W", "U", "E", "D"}

func (s State) String() string {
	switch s {
	case Choose:
		return "C"
	case Invite:
		return "I"
	case Listen:
		return "L"
	case Respond:
		return "R"
	case Wait:
		return "W"
	case Update:
		return "U"
	case Exchange:
		return "E"
	case Done:
		return "D"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// CanTransitionTo reports whether the automaton permits moving from s to
// t: the edge set of Fig. 1, extended with the E state as in Algorithms
// 1 and 2 (U→E, E→C, E→D).
func (s State) CanTransitionTo(t State) bool {
	switch s {
	case Choose:
		return t == Invite || t == Listen
	case Invite:
		return t == Wait
	case Listen:
		return t == Respond
	case Respond:
		return t == Update
	case Wait:
		return t == Update
	case Update:
		return t == Exchange
	case Exchange:
		return t == Choose || t == Done
	case Done:
		return false
	}
	return false
}

// TransitionError reports an illegal state transition — always a
// protocol implementation bug, never a runtime condition.
type TransitionError struct {
	Node     int
	From, To State
}

func (e *TransitionError) Error() string {
	return fmt.Sprintf("automaton: node %d: illegal transition %v -> %v", e.Node, e.From, e.To)
}

// Hook observes transitions; used by the trace package.
type Hook func(node int, from, to State)

// Machine tracks one node's automaton state and enforces transition
// legality. The zero value is not usable; construct with NewMachine.
type Machine struct {
	node        int
	state       State
	transitions int
	hook        Hook
}

// NewMachine returns a machine for the given node, starting in Choose.
// hook may be nil.
func NewMachine(node int, hook Hook) *Machine {
	return &Machine{node: node, state: Choose, hook: hook}
}

// State returns the current state.
func (m *Machine) State() State { return m.state }

// Transitions returns the number of transitions taken.
func (m *Machine) Transitions() int { return m.transitions }

// TransitionTo moves the machine to state t, or reports a
// TransitionError if the automaton has no such edge.
func (m *Machine) TransitionTo(t State) error {
	if !m.state.CanTransitionTo(t) {
		return &TransitionError{Node: m.node, From: m.state, To: t}
	}
	from := m.state
	m.state = t
	m.transitions++
	if m.hook != nil {
		m.hook(m.node, from, t)
	}
	return nil
}

// MustTransition is TransitionTo that panics on an illegal transition.
// Protocol code uses it because an illegal transition is a bug in the
// protocol, not an input-dependent condition.
func (m *Machine) MustTransition(t State) {
	if err := m.TransitionTo(t); err != nil {
		panic(err)
	}
}

// SplitInvites partitions the invitations in an inbox into those
// addressed to node u ("mine") and those overheard ("others") — the
// grouping the R state of Algorithm 2 calls group a and group b. The
// input order (canonical inbox order) is preserved within each group.
// It allocates fresh slices; per-round callers use AppendSplitInvites
// with buffers they keep.
func SplitInvites(u int, inbox []msg.Message) (mine, others []msg.Message) {
	return AppendSplitInvites(nil, nil, u, inbox)
}

// AppendSplitInvites is SplitInvites appending into caller-owned
// buffers: invitations addressed to u are appended to mine, overheard
// ones to others, and the extended slices are returned.
func AppendSplitInvites(mine, others []msg.Message, u int, inbox []msg.Message) ([]msg.Message, []msg.Message) {
	for _, m := range inbox {
		if m.Kind != msg.KindInvite {
			continue
		}
		if m.To == u {
			mine = append(mine, m)
		} else {
			others = append(others, m)
		}
	}
	return mine, others
}

// AppendInvites appends the invitations in inbox addressed to node u to
// dst, in inbox order, and returns the extended slice — the "mine" half
// of AppendSplitInvites for callers that ignore the overheard group.
func AppendInvites(dst []msg.Message, u int, inbox []msg.Message) []msg.Message {
	for _, m := range inbox {
		if m.Kind == msg.KindInvite && m.To == u {
			dst = append(dst, m)
		}
	}
	return dst
}

// FindResponse returns the response in the inbox addressed to node u for
// the given edge, if any. Responses addressed elsewhere or for other
// edges are skipped.
func FindResponse(u, edge int, inbox []msg.Message) (accepted msg.Message, ok bool) {
	for _, m := range inbox {
		if m.Kind == msg.KindResponse && m.To == u && m.Edge == edge {
			accepted, ok = m, true
		}
	}
	return accepted, ok
}
