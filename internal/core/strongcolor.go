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

// scPhases is the number of communication rounds per computation round
// of Algorithm 2: invitations, responses, and the two exchange
// sub-rounds (tentative claims, keep/drop decisions).
const scPhases = 4

// ColorStrong runs Algorithm 2 (DiMa2Ed), the distributed strong
// (distance-2) directed edge coloring, on the symmetric digraph d.
//
// One negotiation colors one arc: an inviter u picks a random uncolored
// outgoing arc (u,v) and a channel available in its closed neighborhood;
// the responder v accepts only if the channel is also available in v's
// closed neighborhood and (per the paper's Procedure 2-b) does not
// collide with overheard invitations. Together the two views cover every
// arc within distance 1 of (u,v) that was colored in earlier rounds.
//
// Same-round collisions are resolved by the claim/confirm exchange (the
// correction described in DESIGN.md): tentative pairs broadcast claims;
// any claimant that hears a conflicting same-color claim of higher
// priority withdraws; endpoints finalize only if both kept. Setting
// Options.UnsafeNoConfirm reverts to the paper's uncorrected behavior.
func ColorStrong(d *graph.Digraph, opt Options) (*Result, error) {
	return ColorStrongCtx(context.Background(), d, opt)
}

// ColorStrongCtx is ColorStrong bounded by ctx: when ctx is canceled
// the engine abandons the run at the next communication-round barrier
// and the returned Result carries the partial coloring with Aborted set
// (Terminated false, unassigned entries -1). Rounds executed before the
// cancellation are byte-identical to an uncanceled run with the same
// options, on every engine.
func ColorStrongCtx(ctx context.Context, d *graph.Digraph, opt Options) (*Result, error) {
	g := d.Under()
	engine := opt.engine()
	if opt.Cluster != nil {
		var err error
		if engine, err = opt.clusterEngine(strongFactoryName, false); err != nil {
			return nil, err
		}
	}
	base := rng.New(opt.Seed)
	nodes := make([]net.Node, g.N())
	scs := make([]*scNode, g.N())
	for u := 0; u < g.N(); u++ {
		scs[u] = newSCNode(d, u, base.Derive(uint64(u)), &opt)
		nodes[u] = scs[u]
	}
	var traffic []net.RoundTraffic
	var observe net.RoundObserver
	if opt.Metrics != nil {
		observe = func(rt net.RoundTraffic) { traffic = append(traffic, rt) }
	}
	netRes, err := engine(g, nodes, net.Config{
		MaxRounds:  scPhases * opt.maxCompRounds(),
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
		Colors:     make([]int, d.A()),
		CommRounds: netRes.Rounds,
		CompRounds: (netRes.Rounds + scPhases - 1) / scPhases,
		Messages:   netRes.Messages,
		Deliveries: netRes.Deliveries,
		Bytes:      netRes.Bytes,
		Terminated: netRes.Terminated,
		Aborted:    netRes.Aborted,
	}
	for i := range res.Colors {
		res.Colors[i] = -1
	}
	endpoints := make([]int8, d.A())
	for _, n := range scs {
		res.DefensiveRejects += n.defensiveRejects
		res.ConflictsDropped += n.conflictsDropped
		res.Retransmits += n.recC.retransmits
		res.Repairs += n.recC.repairs
		res.Reverts += n.recC.reverts
		res.Probes += n.recC.probes
		for a, c := range n.colors {
			endpoints[a]++
			if res.Colors[a] == -1 {
				res.Colors[a] = c
			} else if res.Colors[a] != c {
				return nil, fmt.Errorf("core: arc %v colored %d and %d by its endpoints",
					d.ArcAt(a), res.Colors[a], c)
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
			return scs[u].paired
		}, g.N())
	}
	if opt.Metrics != nil {
		tels := make([]*nodeTelemetry, len(scs))
		for i, n := range scs {
			tels[i] = &n.tel
		}
		emitRoundStats(opt.Metrics, traffic, tels, scPhases, d.A(), g.N())
	}
	if res.Terminated {
		for a, c := range res.Colors {
			if c < 0 {
				return nil, fmt.Errorf("core: terminated with uncolored arc %v", d.ArcAt(graph.ArcID(a)))
			}
		}
	}
	res.countColors()
	return res, nil
}

// scClaim is a tentative pairing awaiting the confirm exchange.
type scClaim struct {
	arc       graph.ArcID
	color     int
	partner   int
	keep      bool
	roundIdx  int // index into the participation log (-1 when disabled)
	compRound int // computation round the claim formed in (telemetry)
}

// scNode is one vertex of Algorithm 2.
type scNode struct {
	id   int
	d    *graph.Digraph
	opt  *Options
	r    *rng.Rand
	mach *automaton.Machine

	colors       map[graph.ArcID]int // colors of incident arcs (both directions)
	uncoloredOut []graph.ArcID       // outgoing arcs not yet colored
	remaining    int                 // incident arcs (in+out) still uncolored
	colorsAt     []ColorSet          // colorsAt[i]: colors on arcs incident to Neighbors(u)[i]
	colorsSelf   ColorSet            // colors on arcs incident to u itself
	nbrIndex     map[int]int

	// Dead-list relay: the E state exchanges each node's *color list* —
	// the channels no longer usable for it, which already aggregates its
	// one-hop knowledge. Relaying the list gives each inviter a view of
	// the responder's forbidden set through one-hop messages only
	// (Algorithm 2 lines 2.23–2.24 and Procedure 2-c).
	deadNbr   []ColorSet // deadNbr[i]: colors Neighbors(u)[i] announced as dead for itself
	announced ColorSet   // colors this node has already announced dead
	deadQueue []int      // newly dead colors awaiting the next exchange

	// In-flight invitation (valid in I/W).
	inviteArc   graph.ArcID
	inviteTo    int
	inviteColor int

	// attempts counts failed invitations per outgoing arc. The responder
	// may hold forbidden colors the inviter cannot see (used by the
	// responder's other neighbors), so a fixed lowest-free proposal can
	// be rejected forever. After a failure the proposal is drawn
	// uniformly from a window that grows with the attempt count, which
	// makes every arc colorable with probability 1. Procedure 2-a only
	// requires "an open channel", so this selection rule is a faithful
	// refinement (see DESIGN.md).
	attempts map[graph.ArcID]int

	claim *scClaim // tentative pairing this round, nil if none

	// forbidden holds the color sets whose union covers every color used
	// on arcs within u's closed neighborhood — u's half of the
	// distance-1 conflict set of any arc incident to u: &colorsSelf
	// followed by &colorsAt[i] for every neighbor. colorsAt never
	// changes length, so it is built once; its spare capacity of one
	// lets proposeColor append a neighbor's dead list without
	// allocating.
	forbidden []*ColorSet

	// mine is per-node scratch reused across rounds: the invitations
	// addressed here, filtered in place to the valid ones. Overheard
	// invitations get no buffer (the overhear filter scans the inbox),
	// which keeps the memory every node retains small.
	mine []msg.Message

	// Recovery state (Options.Recovery; see recovery.go). reaffirmQ holds
	// keep-Decides re-announcing committed colors (after an adoption, or
	// to flush out the losing side of a late-detected conflict), drained
	// at the decide phase so they arrive with the regular knowledge
	// traffic.
	reaffirmQ []msg.Message
	recC      recCounters

	defensiveRejects int
	conflictsDropped int

	// Telemetry (Options.Metrics): obs gates all event logging, curRound
	// is the computation round of the current Step.
	obs      bool
	curRound int
	tel      nodeTelemetry

	// Participation log (Options.CollectParticipation): one entry per
	// computation round this node was active in; true if a claim formed
	// in that round was finalized.
	paired []bool
}

func newSCNode(d *graph.Digraph, u int, r *rng.Rand, opt *Options) *scNode {
	g := d.Under()
	n := &scNode{
		id:        u,
		d:         d,
		opt:       opt,
		obs:       opt.Metrics != nil,
		r:         r,
		mach:      automaton.NewMachine(u, opt.Hook),
		colors:    make(map[graph.ArcID]int, 2*g.Degree(u)),
		remaining: 2 * g.Degree(u),
		colorsAt:  make([]ColorSet, g.Degree(u)),
		nbrIndex:  make(map[int]int, g.Degree(u)),
		attempts:  make(map[graph.ArcID]int),
	}
	n.deadNbr = make([]ColorSet, g.Degree(u))
	n.forbidden = make([]*ColorSet, 0, len(n.colorsAt)+2)
	n.forbidden = append(n.forbidden, &n.colorsSelf)
	for i := range n.colorsAt {
		n.forbidden = append(n.forbidden, &n.colorsAt[i])
	}
	for i, v := range g.Neighbors(u) {
		n.nbrIndex[v] = i
	}
	n.uncoloredOut = append(n.uncoloredOut, d.OutArcs(u)...)
	if n.remaining == 0 {
		for _, s := range []automaton.State{automaton.Listen, automaton.Respond,
			automaton.Update, automaton.Exchange, automaton.Done} {
			n.mach.MustTransition(s)
		}
	}
	return n
}

func (n *scNode) ID() int { return n.id }

func (n *scNode) Done() bool { return n.mach.State() == automaton.Done }

func (n *scNode) recOn() bool { return n.opt.Recovery.Enabled }

func (n *scNode) Step(round int, inbox []msg.Message) []msg.Message {
	if n.obs {
		n.curRound = round / scPhases
	}
	if n.Done() {
		if !n.recOn() {
			return nil
		}
		return n.stepDone(round/scPhases, round%scPhases, inbox)
	}
	switch round % scPhases {
	case 0:
		return n.phaseChooseInvite(round/scPhases, inbox)
	case 1:
		return n.phaseRespond(inbox)
	case 2:
		return n.phaseClaim(inbox)
	default:
		return n.phaseDecide(round/scPhases, inbox)
	}
}

// stepDone services recovery traffic after the node finished. A finished
// node stays the authority for its committed arcs: it answers probes and
// re-invitations for them, keeps scanning neighbor announcements for
// late-detected conflicts, and — when a negative acknowledgement or a
// lost conflict reverts one of its arcs — resurrects as a listener so
// the arc renegotiates.
func (n *scNode) stepDone(compRound, phase int, inbox []msg.Message) []msg.Message {
	switch phase {
	case 0:
		// Neighbor keep-decides and re-announcements: fold into knowledge
		// and check them against this node's committed arcs.
		before := n.remaining
		out := n.scanAnnouncements(compRound, inbox, nil)
		if n.remaining > before {
			n.mach = automaton.NewMachine(n.id, n.opt.Hook)
			n.mach.MustTransition(automaton.Listen)
		}
		return out
	case 1:
		before := n.remaining
		out := n.processAcks(inbox)
		out = n.answerCommittedInvites(inbox, out)
		if n.remaining > before {
			n.mach = automaton.NewMachine(n.id, n.opt.Hook)
			n.mach.MustTransition(automaton.Listen)
			n.mach.MustTransition(automaton.Respond)
		}
		return out
	case 3:
		before := n.remaining
		out := n.processAcks(inbox)
		out = append(out, n.reaffirmQ...)
		n.reaffirmQ = nil
		if compRound > 0 && compRound%n.opt.Recovery.Timeout() == 0 {
			if m, ok := n.reannounceMsg(); ok {
				out = append(out, m)
			}
		}
		if n.remaining > before {
			n.mach = automaton.NewMachine(n.id, n.opt.Hook)
			for _, s := range []automaton.State{automaton.Listen, automaton.Respond,
				automaton.Update, automaton.Exchange, automaton.Choose} {
				n.mach.MustTransition(s)
			}
		}
		return out
	}
	return nil
}

// phaseChooseInvite finalizes the previous round's claims from the
// decide broadcasts, then runs the coin toss and invitation. Under
// recovery the decide processing can emit negative acknowledgements
// (lost partner decisions, late-detected conflicts), and a node whose
// remaining work is a half-colored incoming arc periodically probes the
// arc's owner for its committed state.
func (n *scNode) phaseChooseInvite(compRound int, inbox []msg.Message) []msg.Message {
	out := n.applyDecides(compRound, inbox)
	if n.recOn() && n.remaining > 0 && len(n.uncoloredOut) == 0 &&
		compRound > 0 && compRound%n.opt.Recovery.Timeout() == 0 {
		// Every uncolored incoming arc is awaited from its owner. If the
		// owner committed it one-sidedly (a lost decide), no invitation
		// will ever arrive — ask for its status.
		for _, a := range n.d.InArcs(n.id) {
			if _, ok := n.colors[a]; ok {
				continue
			}
			out = append(out, ackMsg(n.id, n.d.ArcAt(a).From, int(a), -1, false))
			n.recC.probes++
			if n.obs {
				n.tel.at(compRound).probes++
			}
		}
	}
	// The machine is in C at every phase-0 entry (the constructor starts
	// there; phaseDecide loops back). A node whose last arc was just
	// finalized idles through one final cycle as a listener and
	// transitions to D at the round's end, matching the paper's E-state
	// rule that finished nodes transfer to Done.
	if n.remaining == 0 {
		n.mach.MustTransition(automaton.Listen)
		return out
	}
	if n.opt.CollectParticipation {
		n.paired = append(n.paired, false)
	}
	var ev *nodeRoundEvents
	if n.obs {
		ev = n.tel.at(compRound)
		ev.active++
	}
	// Coin toss; a node with no uncolored outgoing arcs has nothing to
	// invite on and always listens (its remaining incoming arcs are
	// colored when the respective neighbors invite).
	if n.r.Bool() && len(n.uncoloredOut) > 0 {
		n.mach.MustTransition(automaton.Invite)
		if ev != nil {
			ev.invited++
		}
		a := n.uncoloredOut[n.r.Intn(len(n.uncoloredOut))]
		v := n.d.ArcAt(a).To
		c := n.proposeColor(a, v)
		n.attempts[a]++
		n.inviteArc, n.inviteTo, n.inviteColor = a, v, c
		return append(out, msg.Message{
			Kind: msg.KindInvite, From: n.id, To: v, Edge: int(a), Color: c,
		})
	}
	n.mach.MustTransition(automaton.Listen)
	if ev != nil {
		ev.listened++
	}
	return out
}

// proposeColor picks the channel to propose for arc a, targeted at
// neighbor v: it must be free in this node's closed neighborhood and, as
// far as the relayed dead lists tell, usable by v. The first attempt
// uses the lowest such channel (keeping the palette compact); each
// fourth failed attempt widens a uniform-random window, guaranteeing
// eventual overlap with the responder's true free set even while relay
// updates are in flight. Under the RandomAvailable rule every attempt is
// randomized.
func (n *scNode) proposeColor(a graph.ArcID, v int) int {
	sets := append(n.forbidden, &n.deadNbr[n.nbrIndex[v]])
	// Most invitation failures are benign (the target was not listening
	// or chose another suitor), and on average an arc needs ~4 attempts
	// even without channel disagreement, so the window widens only every
	// fourth failure. Until then the lowest free channel keeps the
	// palette compact.
	widen := n.attempts[a] / 4
	if widen == 0 && n.opt.ColorRule == LowestFirst {
		return LowestFree(sets...)
	}
	bound := MaxOf(sets...) + 2 + widen
	return RandomFreeBelow(n.r, bound, sets...) // some color is free: bound exceeds max used
}

// applyDecides processes the keep/drop broadcasts of the previous
// round's confirm exchange: finalizes the node's own claim if both
// endpoints kept it, and folds neighbors' kept claims into the one-hop
// color knowledge. Under recovery it additionally emits negative
// acknowledgements — when the partner's decision was lost (it may have
// finalized one-sidedly), when a rival kept decision whose claim
// broadcast this node never heard outranks the claim, and when a
// neighbor announcement reveals a conflict with an already-committed arc
// (conflictCheck).
func (n *scNode) applyDecides(compRound int, inbox []msg.Message) []msg.Message {
	var out []msg.Message
	var partnerKeep, partnerSeen, rivalWins bool
	for _, m := range inbox {
		i, nbr := n.nbrIndex[m.From]
		if m.Kind == msg.KindUpdate {
			// A neighbor's dead-list delta: channels no longer usable
			// for it (relayed one-hop knowledge). Under recovery, paints
			// naming an arc re-announce a committed color.
			if nbr {
				for _, p := range m.Paints {
					n.deadNbr[i].Add(p.Color)
					if n.recOn() && p.Edge >= 0 {
						n.addColorAt(i, p.Color)
						out = n.conflictCheck(graph.ArcID(p.Edge), p.Color, out)
					}
				}
			}
			continue
		}
		if m.Kind != msg.KindDecide {
			continue
		}
		if n.claim != nil && m.From == n.claim.partner && graph.ArcID(m.Edge) == n.claim.arc {
			partnerKeep, partnerSeen = m.Keep, true
		}
		// One-hop knowledge: a neighbor that kept a claim is treated as
		// using that color. If its partner dropped the claim this
		// over-approximates, which can only make future proposals more
		// conservative — never incorrect (see DESIGN.md).
		if m.Keep {
			if nbr {
				n.addColorAt(i, m.Color)
				if n.recOn() {
					out = n.conflictCheck(graph.ArcID(m.Edge), m.Color, out)
				}
			}
			if n.recOn() && n.claim != nil && n.claim.keep &&
				m.Color == n.claim.color && graph.ArcID(m.Edge) != n.claim.arc &&
				m.Edge >= 0 && m.Edge < n.d.A() &&
				n.d.ArcsConflict(n.claim.arc, graph.ArcID(m.Edge)) {
				// A kept conflicting decision whose claim broadcast this
				// node never heard. Yield if it outranks the claim:
				// re-announced commitments (Seq > 0) always do, fresh
				// same-round claims by the usual claim priority.
				if m.Seq > 0 {
					rivalWins = true
				} else {
					p := claimPriority(compRound-1, graph.ArcID(m.Edge))
					my := claimPriority(compRound-1, n.claim.arc)
					if p < my || (p == my && m.Edge < int(n.claim.arc)) {
						rivalWins = true
					}
				}
			}
		}
	}
	if n.claim == nil {
		return out
	}
	cl := n.claim
	n.claim = nil
	if !cl.keep {
		n.drop(cl)
		return out
	}
	if !partnerSeen || !partnerKeep {
		// Partner withdrew (or, under injected faults, its decision was
		// lost): the arc stays uncolored and is retried.
		n.drop(cl)
		if n.recOn() && !partnerSeen {
			// The partner may have heard this node's keep and finalized
			// one-sidedly; demand a revert (a no-op if it also dropped).
			out = append(out, ackMsg(n.id, cl.partner, int(cl.arc), cl.color, false))
		}
		return out
	}
	if rivalWins {
		n.drop(cl)
		out = append(out, ackMsg(n.id, cl.partner, int(cl.arc), cl.color, false))
		return out
	}
	if cl.roundIdx >= 0 && cl.roundIdx < len(n.paired) {
		n.paired[cl.roundIdx] = true
	}
	if n.obs {
		n.tel.at(cl.compRound).paired++
		n.tel.assigns = append(n.tel.assigns, assignEvent{round: cl.compRound, item: int(cl.arc), color: cl.color})
	}
	n.finalize(cl.arc, cl.color)
	return out
}

// drop withdraws a claim, attributing the conflict to the round the
// claim formed in so the telemetry stream matches Participation.
func (n *scNode) drop(cl *scClaim) {
	n.conflictsDropped++
	if n.obs {
		n.tel.at(cl.compRound).dropped++
	}
}

// reject counts a defensive rejection at the current round.
func (n *scNode) reject() {
	n.defensiveRejects++
	if n.obs {
		n.tel.at(n.curRound).rejects++
	}
}

// partIdx returns the current participation-log index (-1 if logging is
// disabled).
func (n *scNode) partIdx() int { return len(n.paired) - 1 }

// addColorAt records that neighbor i has color c on an incident arc,
// which also kills c for this node.
func (n *scNode) addColorAt(i, c int) {
	n.colorsAt[i].Add(c)
	n.markDead(c)
}

// markDead queues color c for the dead-list exchange if it just became
// unusable for this node.
func (n *scNode) markDead(c int) {
	if !n.announced.Has(c) {
		n.announced.Add(c)
		n.deadQueue = append(n.deadQueue, c)
	}
}

// finalize records the color of an incident arc.
func (n *scNode) finalize(a graph.ArcID, c int) {
	if _, dup := n.colors[a]; dup {
		n.reject()
		return
	}
	n.colors[a] = c
	n.colorsSelf.Add(c)
	n.markDead(c)
	n.remaining--
	delete(n.attempts, a)
	for i, id := range n.uncoloredOut {
		if id == a {
			n.uncoloredOut[i] = n.uncoloredOut[len(n.uncoloredOut)-1]
			n.uncoloredOut = n.uncoloredOut[:len(n.uncoloredOut)-1]
			break
		}
	}
}

// phaseRespond: listeners evaluate invitations (Procedure 2-b) and
// respond to at most one; inviters move to W. Under recovery the phase
// opens by settling acknowledgements (reverts, probe answers) and by
// answering invitations for already-committed arcs authoritatively —
// inviters included, since a Waiting node is still the authority for its
// other arcs.
func (n *scNode) phaseRespond(inbox []msg.Message) []msg.Message {
	var out []msg.Message
	if n.recOn() {
		out = n.processAcks(inbox)
		out = n.answerCommittedInvites(inbox, out)
	}
	if n.mach.State() == automaton.Invite {
		n.mach.MustTransition(automaton.Wait)
		return out
	}
	n.mach.MustTransition(automaton.Respond)
	n.mine = automaton.AppendInvites(n.mine[:0], n.id, inbox)
	// A proposed channel is acceptable only if it is free in this node's
	// closed neighborhood. Any invitation overheard from a neighbor is
	// connected to this node's arcs by the link it arrived on, so — per
	// Procedure 2-b — a color collision with an overheard invitation
	// disqualifies an invitation addressed here. The valid invitations
	// are compacted in place at the front of n.mine.
	valid := n.mine[:0]
	for _, m := range n.mine {
		a := graph.ArcID(m.Edge)
		if _, already := n.colors[a]; already || n.d.ArcAt(a).To != n.id {
			if n.recOn() && already {
				continue // answered authoritatively above
			}
			n.reject()
			continue
		}
		// A channel forbidden in this node's closed neighborhood is a
		// normal Procedure 2-b rejection, not a protocol anomaly: the
		// inviter cannot see colors held by this node's other neighbors.
		bad := false
		for _, s := range n.forbidden {
			if s.Has(m.Color) {
				bad = true
				break
			}
		}
		if !n.opt.DisableOverhearFilter && overheardColor(n.id, m.Color, inbox) {
			bad = true
		}
		if !bad {
			valid = append(valid, m)
		}
	}
	if len(valid) == 0 {
		return out
	}
	m := valid[n.r.Intn(len(valid))]
	n.claim = &scClaim{arc: graph.ArcID(m.Edge), color: m.Color, partner: m.From, keep: true,
		roundIdx: n.partIdx(), compRound: n.curRound}
	return append(out, msg.Message{
		Kind: msg.KindResponse, From: n.id, To: m.From, Edge: m.Edge, Color: m.Color,
	})
}

// overheardColor reports whether inbox holds an invitation addressed to
// a node other than u that proposes color c — a collision with
// Procedure 2-b's group b of overheard invitations.
func overheardColor(u, c int, inbox []msg.Message) bool {
	for _, m := range inbox {
		if m.Kind == msg.KindInvite && m.To != u && m.Color == c {
			return true
		}
	}
	return false
}

// phaseClaim: inviters look for an acceptance; both members of each
// tentative pair broadcast a claim (first exchange sub-round). Under
// UnsafeNoConfirm pairs finalize immediately, as in the paper, and
// broadcast a plain color update instead.
func (n *scNode) phaseClaim(inbox []msg.Message) []msg.Message {
	switch n.mach.State() {
	case automaton.Wait:
		if m, ok := automaton.FindResponse(n.id, int(n.inviteArc), inbox); ok {
			if m.From == n.inviteTo && m.Color == n.inviteColor && (!n.recOn() || m.Seq == 0) {
				n.claim = &scClaim{arc: n.inviteArc, color: n.inviteColor, partner: n.inviteTo, keep: true,
					roundIdx: n.partIdx(), compRound: n.curRound}
			} else if !n.recOn() {
				n.reject()
			}
			// Under recovery a Seq > 0 response is an authoritative
			// re-response, handled by the adoption scan below.
		}
		n.mach.MustTransition(automaton.Update)
	case automaton.Respond:
		n.mach.MustTransition(automaton.Update)
	default:
		panic(fmt.Sprintf("core: node %d in state %v at claim phase", n.id, n.mach.State()))
	}
	n.mach.MustTransition(automaton.Exchange)
	var out []msg.Message
	if n.recOn() {
		out = n.adoptResponses(inbox)
	}
	if n.claim == nil {
		return out
	}
	if n.opt.UnsafeNoConfirm {
		cl := n.claim
		n.claim = nil
		if cl.roundIdx >= 0 && cl.roundIdx < len(n.paired) {
			n.paired[cl.roundIdx] = true
		}
		if n.obs {
			n.tel.at(cl.compRound).paired++
			n.tel.assigns = append(n.tel.assigns, assignEvent{round: cl.compRound, item: int(cl.arc), color: cl.color})
		}
		n.finalize(cl.arc, cl.color)
		return append(out, msg.Message{
			Kind: msg.KindUpdate, From: n.id, To: msg.Broadcast, Edge: -1, Color: -1,
			Paints: []msg.Paint{{Edge: int(cl.arc), Color: cl.color}},
		})
	}
	return append(out, msg.Message{
		Kind: msg.KindClaim, From: n.id, To: msg.Broadcast,
		Edge: int(n.claim.arc), Color: n.claim.color,
	})
}

// phaseDecide: second exchange sub-round. Each claimant withdraws if it
// heard a conflicting claim of higher priority; every claim heard from a
// neighbor with the same color conflicts, because the link it was heard
// on connects the two arcs (Definition 2).
func (n *scNode) phaseDecide(compRound int, inbox []msg.Message) []msg.Message {
	defer func() {
		if n.remaining == 0 && n.claim == nil {
			n.mach.MustTransition(automaton.Done)
		} else {
			n.mach.MustTransition(automaton.Choose)
		}
	}()
	var out []msg.Message
	if n.recOn() {
		// Negative acknowledgements from the claim phase's adoption scan
		// arrive here; re-announcements queued by adoptions and won
		// conflicts go out with the knowledge traffic, plus the periodic
		// full re-announcement that heals lost-broadcast knowledge gaps.
		out = n.processAcks(inbox)
		out = append(out, n.reaffirmQ...)
		n.reaffirmQ = nil
		if compRound > 0 && compRound%n.opt.Recovery.Timeout() == 0 {
			if m, ok := n.reannounceMsg(); ok {
				out = append(out, m)
			}
		}
	}
	if n.opt.UnsafeNoConfirm {
		// Ablation arm: fold finalized updates into one-hop knowledge.
		for _, m := range inbox {
			if m.Kind != msg.KindUpdate {
				continue
			}
			if i, ok := n.nbrIndex[m.From]; ok {
				for _, p := range m.Paints {
					n.addColorAt(i, p.Color)
				}
			}
		}
		return n.appendDeadListDelta(out)
	}
	if n.claim == nil {
		return n.appendDeadListDelta(out)
	}
	myPrio := claimPriority(compRound, n.claim.arc)
	for _, m := range inbox {
		if m.Kind != msg.KindClaim || graph.ArcID(m.Edge) == n.claim.arc || m.Color != n.claim.color {
			continue
		}
		p := claimPriority(compRound, graph.ArcID(m.Edge))
		if p < myPrio || (p == myPrio && m.Edge < int(n.claim.arc)) {
			n.claim.keep = false
			break
		}
	}
	// The decide goes out before the dead-list delta: KindDecide sorts
	// before KindUpdate in msg.Less, so the reliable outbox is already
	// in canonical order and the engine need not sort a copy.
	out = append(out, msg.Message{
		Kind: msg.KindDecide, From: n.id, To: msg.Broadcast,
		Edge: int(n.claim.arc), Color: n.claim.color, Keep: n.claim.keep,
	})
	return n.appendDeadListDelta(out)
}

// appendDeadListDelta drains the queue of newly dead channels into an
// exchange broadcast appended to out (nothing if nothing changed) — the
// UPDATECOLORS step.
func (n *scNode) appendDeadListDelta(out []msg.Message) []msg.Message {
	if len(n.deadQueue) == 0 {
		return out
	}
	paints := make([]msg.Paint, len(n.deadQueue))
	for i, c := range n.deadQueue {
		paints[i] = msg.Paint{Edge: -1, Color: c}
	}
	n.deadQueue = n.deadQueue[:0]
	return append(out, msg.Message{
		Kind: msg.KindUpdate, From: n.id, To: msg.Broadcast,
		Edge: -1, Color: -1, Paints: paints,
	})
}

// claimPriority orders same-color claims deterministically; both
// endpoints of each claim and every observer compute the same value from
// the round number and arc id alone. The round term rotates priorities
// so no arc is starved systematically.
func claimPriority(compRound int, a graph.ArcID) uint64 {
	return rng.Mix64(uint64(compRound)<<32 ^ uint64(a))
}

// scanAnnouncements is the finished node's share of applyDecides: fold
// neighbor announcements into one-hop knowledge and check each against
// this node's committed arcs.
func (n *scNode) scanAnnouncements(compRound int, inbox []msg.Message, out []msg.Message) []msg.Message {
	for _, m := range inbox {
		i, nbr := n.nbrIndex[m.From]
		if !nbr {
			continue
		}
		switch m.Kind {
		case msg.KindUpdate:
			for _, p := range m.Paints {
				n.deadNbr[i].Add(p.Color)
				if p.Edge >= 0 {
					n.addColorAt(i, p.Color)
					out = n.conflictCheck(graph.ArcID(p.Edge), p.Color, out)
				}
			}
		case msg.KindDecide:
			if m.Keep {
				n.addColorAt(i, m.Color)
				out = n.conflictCheck(graph.ArcID(m.Edge), m.Color, out)
			}
		}
	}
	return out
}

// conflictCheck tests a neighbor's announced (arc, color) pair against
// this node's committed arcs. A distance-1 collision means a claim or
// decide broadcast was lost before one of the commitments; the statically
// lower-priority arc yields. If this node's arc loses it reverts and
// tells its partner to do the same; if it wins it re-announces the arc so
// the losing side eventually detects the collision and yields.
func (n *scNode) conflictCheck(b graph.ArcID, c int, out []msg.Message) []msg.Message {
	if b < 0 || int(b) >= n.d.A() {
		return out
	}
	for _, a := range n.incidentArcs() {
		if a == b {
			continue
		}
		if cc, ok := n.colors[a]; !ok || cc != c {
			continue
		}
		if !n.d.ArcsConflict(a, b) {
			continue
		}
		if staleWins(a, b) {
			n.reaffirm(a, c)
			continue
		}
		arc := n.d.ArcAt(a)
		partner := arc.To
		if partner == n.id {
			partner = arc.From
		}
		n.revertArc(a, c)
		out = append(out, ackMsg(n.id, partner, int(a), c, false))
	}
	return out
}

// staleWins orders two committed arcs in a late-detected conflict. The
// priority is a pure function of the arc ids, so all four endpoints —
// whenever and in whatever order they detect the collision — agree on
// the survivor without coordination.
func staleWins(a, b graph.ArcID) bool {
	pa, pb := rng.Mix64(uint64(a)), rng.Mix64(uint64(b))
	return pa < pb || (pa == pb && a < b)
}

// processAcks applies incoming KindAck traffic: a negative ack with a
// color reverts the named one-sided commitment; a probe (color -1) is
// answered from committed state with an authoritative Seq-1 Response.
func (n *scNode) processAcks(inbox []msg.Message) []msg.Message {
	var out []msg.Message
	for _, m := range inbox {
		if m.Kind != msg.KindAck || m.To != n.id || m.Keep {
			continue
		}
		a := graph.ArcID(m.Edge)
		if !n.arcWith(a, m.From) {
			continue
		}
		if m.Color >= 0 {
			n.revertArc(a, m.Color)
			continue
		}
		if c, ok := n.colors[a]; ok {
			out = append(out, msg.Message{
				Kind: msg.KindResponse, From: n.id, To: m.From,
				Edge: m.Edge, Color: c, Seq: 1,
			})
			n.retransmit()
		}
	}
	return out
}

// answerCommittedInvites re-responds to invitations for arcs this node
// already committed, with the committed color and a nonzero Seq so the
// inviter routes the reply through its adoption scan.
func (n *scNode) answerCommittedInvites(inbox []msg.Message, out []msg.Message) []msg.Message {
	n.mine = automaton.AppendInvites(n.mine[:0], n.id, inbox)
	for _, m := range n.mine {
		a := graph.ArcID(m.Edge)
		if !n.arcWith(a, m.From) {
			continue
		}
		c, ok := n.colors[a]
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

// adoptResponses settles authoritative (Seq > 0) re-responses addressed
// to this node: the sender committed the arc, so adopt its color if the
// arc is uncolored here and the color passes this node's forbidden sets,
// otherwise demand a revert. Fresh tentative responses (Seq == 0) belong
// to the claim path and are never adopted directly.
func (n *scNode) adoptResponses(inbox []msg.Message) []msg.Message {
	var out []msg.Message
	for _, m := range inbox {
		if m.Kind != msg.KindResponse || m.To != n.id || m.Seq == 0 || m.Color < 0 {
			continue
		}
		a := graph.ArcID(m.Edge)
		if !n.arcWith(a, m.From) {
			continue
		}
		if c, ok := n.colors[a]; ok {
			if c != m.Color {
				out = append(out, ackMsg(n.id, m.From, m.Edge, m.Color, false))
			}
			continue
		}
		bad := n.claim != nil && n.claim.color == m.Color
		if !bad {
			for _, s := range n.forbidden {
				if s.Has(m.Color) {
					bad = true
					break
				}
			}
		}
		if bad {
			out = append(out, ackMsg(n.id, m.From, m.Edge, m.Color, false))
			continue
		}
		n.adopt(a, m.Color)
	}
	return out
}

// adopt finalizes an arc from the partner's authoritative state and
// queues a re-announcement so the neighborhood learns the color.
func (n *scNode) adopt(a graph.ArcID, c int) {
	n.finalize(a, c)
	n.recC.repairs++
	if n.obs {
		n.tel.at(n.curRound).repairs++
		n.tel.assigns = append(n.tel.assigns, assignEvent{round: n.curRound, item: int(a), color: c})
	}
	n.reaffirm(a, c)
}

// reannounceMsg builds the periodic full re-announcement of this node's
// committed colors: one Update whose paints name (arc, color) pairs.
// Receivers fold each pair into one-hop knowledge and run conflictCheck,
// so any conflict whose forming broadcasts were lost is re-detected every
// period until the losing side reverts. Both live and finished nodes
// re-announce — a latent conflict can sit entirely between finished
// nodes.
func (n *scNode) reannounceMsg() (msg.Message, bool) {
	var paints []msg.Paint
	for _, a := range n.incidentArcs() {
		if c, ok := n.colors[a]; ok {
			paints = append(paints, msg.Paint{Edge: int(a), Color: c})
		}
	}
	if len(paints) == 0 {
		return msg.Message{}, false
	}
	return msg.Message{
		Kind: msg.KindUpdate, From: n.id, To: msg.Broadcast,
		Edge: -1, Color: -1, Seq: 1, Paints: paints,
	}, true
}

// reaffirm queues a keep-Decide re-announcing a committed arc color,
// deduplicating per arc; the queue drains at the decide phase.
func (n *scNode) reaffirm(a graph.ArcID, c int) {
	for _, m := range n.reaffirmQ {
		if m.Edge == int(a) {
			return
		}
	}
	n.reaffirmQ = append(n.reaffirmQ, msg.Message{
		Kind: msg.KindDecide, From: n.id, To: msg.Broadcast,
		Edge: int(a), Color: c, Keep: true, Seq: 1,
	})
}

// revertArc undoes this node's commitment of color c to arc a. Stale
// requests (the arc moved on, or was never committed here) are ignored.
// Neighbor knowledge (announced dead lists, colorsAt) is left as is:
// over-approximating a dead color is always safe.
func (n *scNode) revertArc(a graph.ArcID, c int) {
	cur, ok := n.colors[a]
	if !ok || cur != c {
		return
	}
	delete(n.colors, a)
	n.remaining++
	if n.d.ArcAt(a).From == n.id {
		n.uncoloredOut = append(n.uncoloredOut, a)
	}
	n.colorsSelf = ColorSet{}
	for _, cc := range n.colors {
		n.colorsSelf.Add(cc)
	}
	n.recC.reverts++
	if n.obs {
		n.tel.at(n.curRound).reverts++
	}
}

// retransmit counts an authoritative re-response plus its telemetry
// mirror.
func (n *scNode) retransmit() {
	n.recC.retransmits++
	if n.obs {
		n.tel.at(n.curRound).retransmits++
	}
}

// incidentArcs returns this node's incident arcs (out then in) in a
// deterministic order for recovery scans.
func (n *scNode) incidentArcs() []graph.ArcID {
	out := append([]graph.ArcID{}, n.d.OutArcs(n.id)...)
	return append(out, n.d.InArcs(n.id)...)
}

// arcWith reports whether a is an arc between this node and from — the
// validity gate for recovery messages before they touch state.
func (n *scNode) arcWith(a graph.ArcID, from int) bool {
	if a < 0 || int(a) >= n.d.A() {
		return false
	}
	arc := n.d.ArcAt(a)
	return (arc.From == n.id && arc.To == from) || (arc.From == from && arc.To == n.id)
}
