package core

import (
	"context"
	"fmt"

	"dima/internal/automaton"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

// ecPhases is the number of communication rounds per computation round
// of Algorithm 1: invitations, responses, and the exchange broadcast.
const ecPhases = 3

// ColorEdges runs Algorithm 1, the distributed matching-based edge
// coloring, on g and returns the per-edge colors plus run metrics.
//
// Each vertex is an independent automaton instance. Per computation
// round: every active node flips a coin (C) to invite or listen; an
// inviter picks a random uncolored incident edge and proposes the lowest
// color available to both endpoints (I), then waits (W); a listener
// collects invitations addressed to it (L), accepts one at random (R);
// pair members assign the color (U) and broadcast it to their neighbors
// (E). Edges colored in one round form a matching, so no two adjacent
// edges can be assigned in the same round, which is the correctness core
// of the paper's Proposition 2.
func ColorEdges(g *graph.Graph, opt Options) (*Result, error) {
	return ColorEdgesCtx(context.Background(), g, opt)
}

// ColorEdgesCtx is ColorEdges bounded by ctx: when ctx is canceled the
// engine abandons the run at the next communication-round barrier and
// the returned Result carries the partial coloring with Aborted set
// (Terminated false, unassigned entries -1). Rounds executed before the
// cancellation are byte-identical to an uncanceled run with the same
// options, on every engine.
func ColorEdgesCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	return colorEdges(ctx, g, nil, opt)
}

// colorEdges is the shared engine behind ColorEdgesCtx and
// ColorEdgesConstrained. forbidden, when non-nil, holds one color set
// per vertex (entries may be nil) that the vertex must treat as already
// used by itself; nil forbidden reproduces ColorEdgesCtx byte for byte.
func colorEdges(ctx context.Context, g *graph.Graph, forbidden []*ColorSet, opt Options) (*Result, error) {
	if g.EdgeIDBound() != g.M() {
		return nil, fmt.Errorf("core: graph has removal holes (%d ids, %d edges); compact before coloring",
			g.EdgeIDBound(), g.M())
	}
	engine := opt.engine()
	if opt.Cluster != nil {
		var err error
		if engine, err = opt.clusterEngine(edgeFactoryName, forbidden != nil); err != nil {
			return nil, err
		}
	}
	base := rng.New(opt.Seed)
	nodes := make([]net.Node, g.N())
	ecs := make([]*ecNode, g.N())
	for u := 0; u < g.N(); u++ {
		ecs[u] = newECNode(g, u, base.Derive(uint64(u)), &opt)
		if forbidden != nil {
			ecs[u].seedForbidden(forbidden)
		}
		nodes[u] = ecs[u]
	}
	var traffic []net.RoundTraffic
	var observe net.RoundObserver
	if opt.Metrics != nil {
		observe = func(rt net.RoundTraffic) { traffic = append(traffic, rt) }
	}
	netRes, err := engine(g, nodes, net.Config{
		MaxRounds:  ecPhases * opt.maxCompRounds(),
		Ctx:        ctx,
		Fault:      opt.Fault,
		Observe:    observe,
		Workers:    opt.Workers,
		ShardStats: opt.ShardStats,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Colors:     make([]int, g.M()),
		CommRounds: netRes.Rounds,
		CompRounds: (netRes.Rounds + ecPhases - 1) / ecPhases,
		Messages:   netRes.Messages,
		Deliveries: netRes.Deliveries,
		Bytes:      netRes.Bytes,
		Terminated: netRes.Terminated,
		Aborted:    netRes.Aborted,
	}
	for i := range res.Colors {
		res.Colors[i] = -1
	}
	// Assemble edge colors from node-local assignments, verifying that
	// both endpoints agree — the distributed analogue of Proposition 2's
	// "v, w color the edge (v, w) with different colors" case.
	endpoints := make([]int8, g.M())
	for _, n := range ecs {
		res.DefensiveRejects += n.defensiveRejects
		res.Retransmits += n.recC.retransmits
		res.Repairs += n.recC.repairs
		res.Reverts += n.recC.reverts
		res.Probes += n.recC.probes
		for e, c := range n.colors {
			endpoints[e]++
			if res.Colors[e] == -1 {
				res.Colors[e] = c
			} else if res.Colors[e] != c {
				return nil, fmt.Errorf("core: edge %v colored %d and %d by its endpoints",
					g.EdgeAt(e), res.Colors[e], c)
			}
		}
	}
	for _, k := range endpoints {
		if k == 1 {
			res.HalfColored++
		}
	}
	if opt.CollectParticipation {
		res.Participation = aggregateParticipation(res.CompRounds, func(u int) []bool {
			return ecs[u].paired
		}, g.N())
	}
	if opt.Metrics != nil {
		tels := make([]*nodeTelemetry, len(ecs))
		for i, n := range ecs {
			tels[i] = &n.tel
		}
		emitRoundStats(opt.Metrics, traffic, tels, ecPhases, g.M(), g.N())
	}
	if res.Terminated {
		for e, c := range res.Colors {
			if c < 0 {
				return nil, fmt.Errorf("core: terminated with uncolored edge %v", g.EdgeAt(graph.EdgeID(e)))
			}
		}
	}
	res.countColors()
	return res, nil
}

// ecNode is one vertex of Algorithm 1.
type ecNode struct {
	id   int
	g    *graph.Graph
	opt  *Options
	r    *rng.Rand
	mach *automaton.Machine

	colors    map[graph.EdgeID]int // colors of own incident edges
	uncolored []graph.EdgeID       // own incident edges not yet colored
	usedSelf  ColorSet             // colors on own colored edges (live complement)
	usedNbr   []ColorSet           // usedNbr[i]: colors used by Neighbors(u)[i] (the dead list)
	nbrIndex  map[int]int          // neighbor vertex -> index in Neighbors(u)
	forbid    *ColorSet            // externally forbidden colors (ColorEdgesConstrained), folded into usedSelf

	// Current invitation, valid while the machine is in I/W.
	inviteEdge  graph.EdgeID
	inviteTo    int
	inviteColor int

	pendingPaints []msg.Paint // colors assigned this round, to broadcast in E

	// mine is per-node scratch reused across rounds: the invitations
	// addressed here, filtered in place to the valid ones.
	mine []msg.Message

	defensiveRejects int

	// Recovery state (Options.Recovery; see recovery.go). pendingAck
	// holds responder-side assignments awaiting the partner's paint
	// broadcast; retransQ holds Responses queued for the next respond
	// phase; attempts counts failed invitations per edge so stale
	// proposals widen their color window instead of looping forever.
	pendingAck map[graph.EdgeID]*ecPending
	retransQ   []msg.Message
	attempts   map[graph.EdgeID]int
	recC       recCounters

	// Telemetry (Options.Metrics): obs gates all event logging, curRound
	// is the computation round of the current Step.
	obs      bool
	curRound int
	tel      nodeTelemetry

	// Participation log (Options.CollectParticipation): one entry per
	// computation round this node was active in; true if it paired.
	paired []bool
}

func newECNode(g *graph.Graph, u int, r *rng.Rand, opt *Options) *ecNode {
	n := &ecNode{
		id:       u,
		g:        g,
		opt:      opt,
		obs:      opt.Metrics != nil,
		r:        r,
		mach:     automaton.NewMachine(u, opt.Hook),
		colors:   make(map[graph.EdgeID]int, g.Degree(u)),
		usedNbr:  make([]ColorSet, g.Degree(u)),
		nbrIndex: make(map[int]int, g.Degree(u)),
	}
	if opt.Recovery.Enabled {
		n.pendingAck = make(map[graph.EdgeID]*ecPending)
		n.attempts = make(map[graph.EdgeID]int)
	}
	for i, v := range g.Neighbors(u) {
		n.nbrIndex[v] = i
	}
	n.uncolored = append(n.uncolored, g.IncidentEdges(u)...)
	if len(n.uncolored) == 0 {
		// Isolated vertex: walk a legal path straight to Done so the
		// machine invariant (all terminations pass through D) holds.
		for _, s := range []automaton.State{automaton.Listen, automaton.Respond,
			automaton.Update, automaton.Exchange, automaton.Done} {
			n.mach.MustTransition(s)
		}
	}
	return n
}

// seedForbidden folds externally forbidden colors (per vertex) into the
// node's live and dead lists before the run starts: forbidden[u] acts as
// colors already on u's own edges, and each neighbor's forbidden set as
// colors already broadcast by that neighbor. The set is kept on the node
// so recovery's rebuildUsedSelf cannot drop it.
func (n *ecNode) seedForbidden(forbidden []*ColorSet) {
	if f := forbidden[n.id]; f != nil && len(f.words) > 0 {
		n.forbid = f.Clone()
		n.usedSelf.AddSet(n.forbid)
	}
	for i, v := range n.g.Neighbors(n.id) {
		n.usedNbr[i].AddSet(forbidden[v])
	}
}

func (n *ecNode) ID() int { return n.id }

func (n *ecNode) Done() bool { return n.mach.State() == automaton.Done }

func (n *ecNode) recOn() bool { return n.opt.Recovery.Enabled }

func (n *ecNode) Step(round int, inbox []msg.Message) []msg.Message {
	if n.obs {
		n.curRound = round / ecPhases
	}
	if n.Done() {
		if !n.recOn() {
			return nil
		}
		return n.stepDone(round%ecPhases, inbox)
	}
	switch round % ecPhases {
	case 0:
		return n.phaseChooseInvite(inbox)
	case 1:
		return n.phaseRespond(inbox)
	default:
		return n.phaseUpdateExchange(inbox)
	}
}

// stepDone services recovery traffic after the node finished: a finished
// node is the authority for its colored edges, so it keeps answering
// invitations for them, and a negative acknowledgement (its partner
// could not adopt a one-sided assignment) reverts the edge and
// resurrects the node as a listener for the rest of the current cycle.
func (n *ecNode) stepDone(phase int, inbox []msg.Message) []msg.Message {
	if phase == 2 {
		return nil // acknowledgements and invitations never land here
	}
	before := len(n.uncolored)
	n.absorbAcks(inbox)
	if len(n.uncolored) > before {
		n.mach = automaton.NewMachine(n.id, n.opt.Hook)
		n.mach.MustTransition(automaton.Listen)
		if phase == 1 {
			n.mach.MustTransition(automaton.Respond)
		}
	}
	if phase == 1 {
		return n.answerColoredInvites(inbox, nil)
	}
	return nil
}

// phaseChooseInvite applies neighbor updates from the previous exchange,
// runs the C state's coin toss, and broadcasts an invitation if the node
// became an inviter. Under recovery it first settles acknowledgements:
// incoming acks, partner paints that implicitly acknowledge or repair an
// assignment, and the aging of its own unacknowledged assignments.
func (n *ecNode) phaseChooseInvite(inbox []msg.Message) []msg.Message {
	var out []msg.Message
	if n.recOn() {
		n.absorbAcks(inbox)
	}
	for _, m := range inbox {
		if m.Kind != msg.KindUpdate {
			continue
		}
		if i, ok := n.nbrIndex[m.From]; ok {
			for _, p := range m.Paints {
				n.usedNbr[i].Add(p.Color)
			}
			if n.recOn() {
				out = n.absorbPaints(m, out)
			}
		}
	}
	if n.recOn() {
		n.ageAcks()
		if len(n.uncolored) == 0 {
			// All own edges colored; the node only lingers for
			// outstanding acknowledgements. Listen until they settle.
			n.mach.MustTransition(automaton.Listen)
			return out
		}
	}
	if n.opt.CollectParticipation {
		n.paired = append(n.paired, false)
	}
	var ev *nodeRoundEvents
	if n.obs {
		ev = n.tel.at(n.curRound)
		ev.active++
	}
	// C state: coin toss (line 1.8).
	if n.r.Bool() {
		// Inviter: random uncolored edge, lowest available color
		// (lines 1.10–1.12).
		n.mach.MustTransition(automaton.Invite)
		if ev != nil {
			ev.invited++
		}
		e := n.uncolored[n.r.Intn(len(n.uncolored))]
		v := n.g.EdgeAt(e).Other(n.id)
		c := n.proposeColor(e, &n.usedNbr[n.nbrIndex[v]])
		if n.recOn() {
			n.attempts[e]++
		}
		n.inviteEdge, n.inviteTo, n.inviteColor = e, v, c
		return append(out, msg.Message{
			Kind: msg.KindInvite, From: n.id, To: v, Edge: int(e), Color: c,
		})
	}
	n.mach.MustTransition(automaton.Listen)
	if ev != nil {
		ev.listened++
	}
	return out
}

// absorbPaints handles the recovery significance of one neighbor's paint
// broadcast: a paint naming a shared edge is the implicit acknowledgement
// of this node's assignment — or, if this node has the edge uncolored,
// the partner's authoritative assignment to adopt (a lost Response left
// this side behind). An unadoptable color is answered with a negative
// acknowledgement so the partner reverts.
func (n *ecNode) absorbPaints(m msg.Message, out []msg.Message) []msg.Message {
	for _, p := range m.Paints {
		e := graph.EdgeID(p.Edge)
		if !n.incidentFrom(e, m.From) {
			continue
		}
		if pa, ok := n.pendingAck[e]; ok && pa.partner == m.From {
			delete(n.pendingAck, e)
		}
		if !n.isUncolored(e) {
			continue
		}
		if n.usedSelf.Has(p.Color) {
			out = append(out, ackMsg(n.id, m.From, int(e), p.Color, false))
			continue
		}
		n.assign(e, p.Color, m.From)
		n.repair()
	}
	return out
}

// ageAcks advances the acknowledgement clocks of this node's one-sided
// assignments, queueing a Response retransmission for each that timed
// out, and abandoning those whose retry budget is spent (the edge stays
// colored here; the partner's own re-invitations can still repair it).
func (n *ecNode) ageAcks() {
	if len(n.pendingAck) == 0 {
		return
	}
	for _, e := range sortedEdgeKeys(n.pendingAck) {
		pa := n.pendingAck[e]
		pa.age++
		if pa.age < n.opt.Recovery.Timeout() {
			continue
		}
		if pa.tries >= n.opt.Recovery.Budget() {
			delete(n.pendingAck, e)
			continue
		}
		pa.tries++
		pa.age = 0
		n.retransQ = append(n.retransQ, msg.Message{
			Kind: msg.KindResponse, From: n.id, To: pa.partner,
			Edge: int(e), Color: pa.color, Seq: uint32(pa.tries),
		})
		n.recC.retransmits++
		if n.obs {
			n.tel.at(n.curRound).retransmits++
		}
	}
}

// proposeColor picks the color to propose for edge e given the target
// neighbor's dead list, per the configured rule. Under recovery,
// repeatedly failed invitations widen a uniform-random window (as
// Algorithm 2 does) because lost updates can leave the inviter unable to
// see why its lowest-free proposal keeps being rejected.
func (n *ecNode) proposeColor(e graph.EdgeID, target *ColorSet) int {
	widen := 0
	if n.recOn() {
		widen = n.attempts[e] / 4
	}
	if n.opt.ColorRule != RandomAvailable && widen == 0 {
		return LowestFree(&n.usedSelf, target)
	}
	bound := MaxOf(&n.usedSelf, target) + 2 + widen
	return RandomFreeBelow(n.r, bound, &n.usedSelf, target) // some color is free: bound exceeds max used
}

// phaseRespond handles the L→R side (accept one invitation) and the I→W
// side (inviters idle while their proposal is in flight). Under recovery
// it first settles negative acknowledgements from the previous choose
// phase, drains queued retransmissions, and answers invitations for
// already-committed edges with their authoritative color.
func (n *ecNode) phaseRespond(inbox []msg.Message) []msg.Message {
	var out []msg.Message
	if n.recOn() {
		n.absorbAcks(inbox)
		out = append(out, n.retransQ...)
		n.retransQ = nil
	}
	if n.mach.State() == automaton.Invite {
		n.mach.MustTransition(automaton.Wait)
		return out
	}
	n.mach.MustTransition(automaton.Respond)
	n.mine = automaton.AppendInvites(n.mine[:0], n.id, inbox)
	// Defensive validation: an invitation is acceptable only if its
	// color is unused here and its edge is still uncolored. The protocol
	// invariants guarantee this under reliable delivery (the inviter
	// proposed from current one-hop knowledge); under injected faults
	// stale invitations are rejected here. The valid ones are compacted
	// in place at the front of n.mine.
	valid := n.mine[:0]
	for _, m := range n.mine {
		if n.recOn() {
			if c, ok := n.colors[graph.EdgeID(m.Edge)]; ok && n.incidentFrom(graph.EdgeID(m.Edge), m.From) {
				// The inviter renegotiates an edge this node already
				// committed: its earlier Response (or the inviter's
				// acceptance) was lost. Re-respond with the committed
				// color so the inviter adopts it.
				out = append(out, msg.Message{
					Kind: msg.KindResponse, From: n.id, To: m.From,
					Edge: m.Edge, Color: c, Seq: m.Seq + 1,
				})
				n.retransmit()
				continue
			}
		}
		if !n.usedSelf.Has(m.Color) && n.isUncolored(graph.EdgeID(m.Edge)) {
			valid = append(valid, m)
		} else {
			n.reject()
		}
	}
	if len(valid) == 0 {
		return out
	}
	// R state: accept one invitation uniformly at random (line 1.21)
	// and assign the color immediately (line 1.23).
	m := valid[n.r.Intn(len(valid))]
	n.assign(graph.EdgeID(m.Edge), m.Color, m.From)
	if n.recOn() {
		n.pendingAck[graph.EdgeID(m.Edge)] = &ecPending{color: m.Color, partner: m.From}
	}
	return append(out, msg.Message{
		Kind: msg.KindResponse, From: n.id, To: m.From, Edge: m.Edge, Color: m.Color,
	})
}

// phaseUpdateExchange closes the round: inviters apply an acceptance if
// one arrived (W→U), everyone broadcasts newly used colors (U→E), and
// the machine loops to C or stops at D. Under recovery the response
// handling generalizes from the one expected reply to any Response for
// an incident edge (adopting, acknowledging, or refusing it), and the
// node stays live while assignments await acknowledgement.
func (n *ecNode) phaseUpdateExchange(inbox []msg.Message) []msg.Message {
	wasWait := n.mach.State() == automaton.Wait
	switch n.mach.State() {
	case automaton.Wait:
		if !n.recOn() {
			if m, ok := automaton.FindResponse(n.id, int(n.inviteEdge), inbox); ok {
				if m.From == n.inviteTo && m.Color == n.inviteColor {
					n.assign(n.inviteEdge, m.Color, m.From)
				} else {
					// A response for my edge with mismatched partner or
					// color cannot occur under the protocol.
					n.reject()
				}
			}
		}
		n.mach.MustTransition(automaton.Update)
	case automaton.Respond:
		n.mach.MustTransition(automaton.Update)
	default:
		panic(fmt.Sprintf("core: node %d in state %v at update phase", n.id, n.mach.State()))
	}
	n.mach.MustTransition(automaton.Exchange)

	var out []msg.Message
	if n.recOn() {
		out = n.recoverResponses(inbox, wasWait)
	}
	if len(n.pendingPaints) > 0 {
		out = append(out, msg.Message{
			Kind: msg.KindUpdate, From: n.id, To: msg.Broadcast,
			Edge: -1, Color: -1, Paints: n.pendingPaints,
		})
		n.pendingPaints = nil
	}
	if len(n.uncolored) == 0 && !(n.recOn() && len(n.pendingAck) > 0) {
		n.mach.MustTransition(automaton.Done)
	} else {
		n.mach.MustTransition(automaton.Choose)
	}
	return out
}

// recoverResponses is the recovery generalization of the Wait state's
// response handling: every Response addressed to this node for an
// incident edge is settled — adopted if the edge is uncolored here and
// the color is free, positively acknowledged if it matches the committed
// color (ending the sender's retransmission loop), or refused with a
// negative acknowledgement so the sender reverts. The one response the
// reliable protocol expects (fresh acceptance of this round's invitation)
// is not counted as a repair.
func (n *ecNode) recoverResponses(inbox []msg.Message, wasWait bool) []msg.Message {
	var out []msg.Message
	for _, m := range inbox {
		if m.Kind != msg.KindResponse || m.To != n.id {
			continue
		}
		e := graph.EdgeID(m.Edge)
		if !n.incidentFrom(e, m.From) || m.Color < 0 {
			continue
		}
		if c, ok := n.colors[e]; ok {
			out = append(out, ackMsg(n.id, m.From, m.Edge, m.Color, c == m.Color))
			continue
		}
		if n.usedSelf.Has(m.Color) {
			// Cannot adopt: the color is already on another of this
			// node's edges. Demand a revert.
			out = append(out, ackMsg(n.id, m.From, m.Edge, m.Color, false))
			continue
		}
		n.assign(e, m.Color, m.From)
		if !(wasWait && e == n.inviteEdge && m.From == n.inviteTo && m.Color == n.inviteColor) {
			n.repair()
		}
	}
	return out
}

// absorbAcks applies incoming KindAck messages: a positive ack settles
// the matching pendingAck entry; a negative ack with a color reverts the
// named one-sided assignment; probes (color -1) are an Algorithm 2
// concept and ignored here.
func (n *ecNode) absorbAcks(inbox []msg.Message) {
	for _, m := range inbox {
		if m.Kind != msg.KindAck || m.To != n.id {
			continue
		}
		e := graph.EdgeID(m.Edge)
		if !n.incidentFrom(e, m.From) {
			continue
		}
		if m.Keep {
			if pa, ok := n.pendingAck[e]; ok && pa.partner == m.From && pa.color == m.Color {
				delete(n.pendingAck, e)
			}
			continue
		}
		if m.Color < 0 {
			continue
		}
		n.revert(e, m.Color)
	}
}

// revert undoes this node's one-sided assignment of color c to edge e
// after the partner refused it. Stale reverts (the edge has moved on to
// a different color, or was never colored here) are ignored.
func (n *ecNode) revert(e graph.EdgeID, c int) {
	cur, ok := n.colors[e]
	if !ok || cur != c {
		return
	}
	delete(n.colors, e)
	delete(n.pendingAck, e)
	n.uncolored = append(n.uncolored, e)
	n.rebuildUsedSelf()
	for i, p := range n.pendingPaints {
		if graph.EdgeID(p.Edge) == e {
			n.pendingPaints = append(n.pendingPaints[:i], n.pendingPaints[i+1:]...)
			break
		}
	}
	n.recC.reverts++
	if n.obs {
		n.tel.at(n.curRound).reverts++
	}
}

// rebuildUsedSelf recomputes the live-complement set from scratch;
// ColorSet has no removal, and reverts are rare enough that a rebuild is
// simpler than reference counting.
func (n *ecNode) rebuildUsedSelf() {
	n.usedSelf = ColorSet{}
	n.usedSelf.AddSet(n.forbid)
	for _, c := range n.colors {
		n.usedSelf.Add(c)
	}
}

// answerColoredInvites re-responds to invitations for edges this node
// already committed — the finished node's half of the authoritative
// re-response mechanism.
func (n *ecNode) answerColoredInvites(inbox []msg.Message, out []msg.Message) []msg.Message {
	n.mine = automaton.AppendInvites(n.mine[:0], n.id, inbox)
	for _, m := range n.mine {
		e := graph.EdgeID(m.Edge)
		if !n.incidentFrom(e, m.From) {
			continue
		}
		c, ok := n.colors[e]
		if !ok {
			continue
		}
		out = append(out, msg.Message{
			Kind: msg.KindResponse, From: n.id, To: m.From,
			Edge: m.Edge, Color: c, Seq: m.Seq + 1,
		})
		n.retransmit()
	}
	return out
}

// repair and retransmit bump the recovery counters plus their telemetry
// mirrors.
func (n *ecNode) repair() {
	n.recC.repairs++
	if n.obs {
		n.tel.at(n.curRound).repairs++
	}
}

func (n *ecNode) retransmit() {
	n.recC.retransmits++
	if n.obs {
		n.tel.at(n.curRound).retransmits++
	}
}

// incidentFrom reports whether e is an edge between this node and from —
// the validity gate for every recovery message before it touches state.
func (n *ecNode) incidentFrom(e graph.EdgeID, from int) bool {
	if e < 0 || int(e) >= n.g.M() {
		return false
	}
	ed := n.g.EdgeAt(e)
	return (ed.U == n.id && ed.V == from) || (ed.V == n.id && ed.U == from)
}

// reject counts a responder-side defensive rejection.
func (n *ecNode) reject() {
	n.defensiveRejects++
	if n.obs {
		n.tel.at(n.curRound).rejects++
	}
}

// assign colors edge e with c, updating the live/dead bookkeeping and
// queueing the exchange broadcast.
func (n *ecNode) assign(e graph.EdgeID, c int, partner int) {
	if n.opt.CollectParticipation && len(n.paired) > 0 {
		n.paired[len(n.paired)-1] = true
	}
	if n.obs {
		n.tel.at(n.curRound).paired++
		n.tel.assigns = append(n.tel.assigns, assignEvent{round: n.curRound, item: int(e), color: c})
	}
	n.colors[e] = c
	n.usedSelf.Add(c)
	if n.recOn() {
		delete(n.attempts, e)
	}
	if i, ok := n.nbrIndex[partner]; ok {
		n.usedNbr[i].Add(c) // the partner uses c now too
	}
	for i, id := range n.uncolored {
		if id == e {
			n.uncolored[i] = n.uncolored[len(n.uncolored)-1]
			n.uncolored = n.uncolored[:len(n.uncolored)-1]
			break
		}
	}
	n.pendingPaints = append(n.pendingPaints, msg.Paint{Edge: int(e), Color: c})
}

func (n *ecNode) isUncolored(e graph.EdgeID) bool {
	for _, id := range n.uncolored {
		if id == e {
			return true
		}
	}
	return false
}
