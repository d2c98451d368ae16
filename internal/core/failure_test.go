package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
)

// Fault drills. The engine knows one kind of death — a machine's fabric link
// severs with whatever it held, like a SIGKILL — so every drill kills through
// the chaos transport (or an endpoint's Abort) and the coordinator must detect
// the death via the transport, reconstruct the lost tokens from the
// survivors' records and finish on the survivors.
//
// Which tokens a dying machine holds depends on arrival order, so no drill
// compares against a reference run. checkVisitLogs pins what every schedule
// must satisfy instead.

// fastRescue keeps failure-era waits short in tests without weakening them.
const fastRescue = 2 * time.Second

// ringIter is one iteration as checkVisitLogs sees it: the ranks in the ring
// when its W step opened and the ranks whose death it reports (during the W
// step if in Alive, found dead before it opened otherwise), both ascending.
type ringIter struct{ Alive, Died []int }

// subLog is a submodel's observable history (toySub here, WireSub on TCP).
type subLog struct {
	Visits []int // shard ids in training order, all iterations
	Sum    float64
	Count  int
}

// drill is a finished run handed to checkVisitLogs. Machine r must serve
// shard r, whose Points values are r·Points, r·Points+1, … (the toy and wire
// problems), and the run must not shuffle.
type drill struct {
	Epochs, Points int
	Iters          []ringIter
	Results        []IterationResult
	Subs           []subLog
	SurvivorZ      []float64 // one Z value per surviving shard
}

// checkVisitLogs asserts the schedule-independent recovery invariant. Without
// shuffling, submodel id's training itinerary in an iteration is the ring
// walked Epochs times from its home; its visit log must be an in-order
// subsequence of that itinerary, so no position is trained twice, and a
// position may be missing only if a machine that died in that iteration held
// it, or if it is part of the contiguous block in front of two such
// positions in a row (the rescuer died too and recovery fell back to an older
// copy). A dead machine's own visit may or may not have survived: its last
// forward is not assumed to have arrived. The submodel's sum and count must
// be exactly what its log implies, the survivors' Z state must agree, and
// every iteration must report exactly its deaths, each lost token recovered
// from a machine that was alive.
func checkVisitLogs(t testing.TB, d drill) {
	t.Helper()
	for id, sub := range d.Subs {
		var route []int
		var deadHeld []bool
		for _, it := range d.Iters {
			p := len(it.Alive)
			for v := 0; v < d.Epochs*p; v++ {
				r := it.Alive[(id%p+v)%p]
				route = append(route, r)
				deadHeld = append(deadHeld, slices.Contains(it.Died, r))
			}
		}
		missing := make([]bool, len(route))
		next := 0
		for pos, r := range route {
			if next < len(sub.Visits) && sub.Visits[next] == r {
				next++
			} else {
				missing[pos] = true
			}
		}
		if next != len(sub.Visits) {
			t.Errorf("submodel %d: visit log %v is not an in-order subsequence of its itinerary %v",
				id, sub.Visits, route)
			continue
		}
		for pos := range route {
			if !missing[pos] || deadHeld[pos] {
				continue
			}
			q := pos
			for q < len(route) && missing[q] && !deadHeld[q] {
				q++
			}
			if q+1 >= len(route) || !missing[q] || !deadHeld[q] || !missing[q+1] || !deadHeld[q+1] {
				t.Errorf("submodel %d: lost its visit to live machine %d (position %d of %v, log %v)",
					id, route[pos], pos, route, sub.Visits)
				break
			}
		}
		var sum float64
		count := 0
		for _, shard := range sub.Visits {
			for i := 0; i < d.Points; i++ {
				sum += float64(shard*d.Points + i)
				count++
			}
		}
		if sum != sub.Sum || count != sub.Count {
			t.Errorf("submodel %d: sum=%v count=%d, but its visit log %v implies sum=%v count=%d",
				id, sub.Sum, sub.Count, sub.Visits, sum, count)
		}
	}
	for i, z := range d.SurvivorZ {
		if z != d.SurvivorZ[0] {
			t.Errorf("survivor %d Z state %v, survivor 0 has %v", i, z, d.SurvivorZ[0])
		}
	}
	for i, it := range d.Iters {
		res := d.Results[i]
		want := len(it.Alive)
		for _, r := range it.Died {
			if slices.Contains(it.Alive, r) {
				want--
			}
		}
		if res.AliveMachines != want {
			t.Errorf("iteration %d: %d machines alive, want %d (failures %+v)", i, res.AliveMachines, want, res.Failures)
		}
		var died []int
		for _, ev := range res.Failures {
			switch {
			case ev.LostToken < 0:
				died = append(died, ev.Rank)
			case !ev.Recovered || !slices.Contains(it.Died, ev.Rank) || ev.FromRank == ev.Rank ||
				(ev.FromRank >= 0 && !slices.Contains(it.Alive, ev.FromRank)):
				t.Errorf("iteration %d: malformed lost-token event %+v", i, ev)
			}
		}
		sort.Ints(died)
		if !slices.Equal(died, it.Died) {
			t.Errorf("iteration %d: deaths recorded %v, want %v (failures %+v)", i, died, it.Died, res.Failures)
		}
	}
}

// The TCP drills live in package core_test; hand them the checker.
type (
	RingIter = ringIter
	SubLog   = subLog
	Drill    = drill
)

var CheckVisitLogs = checkVisitLogs

func toyLogs(p *toyProblem) []subLog {
	var out []subLog
	for _, s := range p.toys() {
		out = append(out, subLog{Visits: s.visits, Sum: s.sum, Count: s.count})
	}
	return out
}

// toyZ is one Z value per surviving shard, as the shard's machine holds it.
func toyZ(p *toyProblem, survivors ...int) []float64 {
	var out []float64
	for _, s := range survivors {
		out = append(out, p.machineZ(s)[0])
	}
	return out
}

// chaosEngine runs the in-process engine on a chaos-wrapped channel fabric
// with the given kills armed before it starts and short rescue waits.
func chaosEngine(t *testing.T, prob *toyProblem, cfg Config, kills ...chaos.KillSpec) (*Engine, *chaos.Fabric) {
	t.Helper()
	cfg.RescueTimeout = fastRescue
	fab, err := chaos.New(cluster.NewNetwork(cfg.P + 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kills {
		fab.Arm(k)
	}
	e := NewOn(prob, cfg, fab, prob.machine)
	t.Cleanup(e.Shutdown)
	return e, fab
}

func killAt(rank, tag, afterSends int) chaos.KillSpec {
	return chaos.KillSpec{Rank: rank, Tag: tag, AfterSends: afterSends}
}

func hasEvent(evs []FailureEvent, match func(FailureEvent) bool) bool {
	for _, ev := range evs {
		if match(ev) {
			return true
		}
	}
	return false
}

// TestFaultRecoveryMidWStep is the paper's case (§4.3 "revert to the
// previously updated copy"): machine 2 homes no submodel, so every token it
// loses arrived from machine 1 and must be restored from machine 1's replica.
func TestFaultRecoveryMidWStep(t *testing.T) {
	p := newToyProblem(3, 4, 2)
	e, _ := chaosEngine(t, p, Config{P: 3, Epochs: 2, Seed: 12}, killAt(2, tagToken, 1))
	res := e.Run(2) // the engine must keep working after the failure
	lost := 0
	for _, ev := range res[0].Failures {
		if ev.LostToken >= 0 {
			lost++
			if ev.FromRank != 1 {
				t.Errorf("token %d restored from %d, want the predecessor's replica (machine 1)", ev.LostToken, ev.FromRank)
			}
		}
	}
	if lost == 0 {
		t.Errorf("no lost token recorded: %+v", res[0].Failures)
	}
	checkVisitLogs(t, drill{
		Epochs: 2, Points: 4, Results: res, Subs: toyLogs(p), SurvivorZ: toyZ(p, 0, 1),
		Iters: []ringIter{{Alive: []int{0, 1, 2}, Died: []int{2}}, {Alive: []int{0, 1}}},
	})
}

// TestRescueFallsBackToAuthoritativeCopy: machine 0 dies on its very first
// send. That is submodel 0, fresh from the coordinator — nothing else can be
// in machine 0's inbox ahead of it — so no machine holds a replica and
// recovery must restart it from the coordinator's copy. That copy is the
// pre-iteration model, so the dead machine's visit is gone from it.
func TestRescueFallsBackToAuthoritativeCopy(t *testing.T) {
	p := newToyProblem(3, 4, 3)
	e, _ := chaosEngine(t, p, Config{P: 3, Epochs: 1, Seed: 20}, killAt(0, tagToken, 0))
	res := e.Run(1)
	if !hasEvent(res[0].Failures, func(ev FailureEvent) bool {
		return ev.Rank == 0 && ev.LostToken == 0 && ev.Recovered && ev.FromRank == -1
	}) {
		t.Errorf("submodel 0 not restarted from the coordinator's copy: %+v", res[0].Failures)
	}
	if sub := p.toys()[0]; slices.Contains(sub.visits, 0) || sub.count != 4*len(sub.visits) {
		t.Errorf("restarted submodel 0 kept dead machine 0's work: visits=%v count=%d", sub.visits, sub.count)
	}
	checkVisitLogs(t, drill{
		Epochs: 1, Points: 4, Results: res, Subs: toyLogs(p), SurvivorZ: toyZ(p, 1, 2),
		Iters: []ringIter{{Alive: []int{0, 1, 2}, Died: []int{0}}},
	})
}

// TestDeathAtEveryForward sweeps the kill point over every token forward
// machine 1 makes in a W step (14 with P=3, e=2, M=6): whichever tokens it
// holds at that moment, recovery must keep the invariant, and the next
// iteration must run clean on the survivors.
func TestDeathAtEveryForward(t *testing.T) {
	for k := 0; k < 14; k++ {
		p := newToyProblem(3, 4, 6)
		e, _ := chaosEngine(t, p, Config{P: 3, Epochs: 2, Seed: 12}, killAt(1, tagToken, k))
		res := e.Run(2)
		if !hasEvent(res[0].Failures, func(ev FailureEvent) bool { return ev.Rank == 1 && ev.LostToken >= 0 }) {
			t.Errorf("kill at forward %d: no lost token recorded: %+v", k, res[0].Failures)
		}
		checkVisitLogs(t, drill{
			Epochs: 2, Points: 4, Results: res, Subs: toyLogs(p), SurvivorZ: toyZ(p, 0, 2),
			Iters: []ringIter{{Alive: []int{0, 1, 2}, Died: []int{1}}, {Alive: []int{0, 2}}},
		})
		if t.Failed() {
			t.Fatalf("kill at forward %d broke the invariant", k)
		}
	}
}

// TestTwoUnannouncedDeathsSameWStep: overlapping failures are best-effort.
// The second machine dies while the first death's probe sweep is collecting,
// so the sweep can act on a stale account and resurrect a token that was
// still circulating — visits may be lost or repeated, which is why this
// drill does not go through checkVisitLogs. Training must still complete on
// the survivors with both deaths recorded, and the engine keeps iterating.
func TestTwoUnannouncedDeathsSameWStep(t *testing.T) {
	p := newToyProblem(4, 3, 5)
	e, _ := chaosEngine(t, p, Config{P: 4, Epochs: 2, Seed: 33}, killAt(1, tagToken, 2), killAt(3, tagToken, 2))
	res := e.Iterate()
	if res.AliveMachines != 2 {
		t.Fatalf("alive = %d, want 2 (failures: %+v)", res.AliveMachines, res.Failures)
	}
	for _, rank := range []int{1, 3} {
		if !hasEvent(res.Failures, func(ev FailureEvent) bool { return ev.Rank == rank && ev.LostToken == -1 }) {
			t.Fatalf("death of rank %d not recorded: %+v", rank, res.Failures)
		}
	}
	for _, sub := range p.toys() {
		if sub.count == 0 {
			t.Fatalf("submodel %d never trained", sub.id)
		}
	}
	res2 := e.Iterate()
	if res2.AliveMachines != 2 || len(res2.Failures) != 0 {
		t.Fatalf("second iteration after double death: %+v", res2)
	}
}

// TestRescuerDiesDuringRescue: machine 2 dies holding a token that came from
// machine 1 (it homes none), and machine 1 — the replica holder asked first
// — dies the moment it answers the rescue request. The coordinator must fail
// over to an older copy and finish on the lone survivor.
func TestRescuerDiesDuringRescue(t *testing.T) {
	p := newToyProblem(3, 4, 2)
	e, _ := chaosEngine(t, p, Config{P: 3, Epochs: 2, Seed: 12}, killAt(2, tagToken, 1), killAt(1, tagRescueReply, 0))
	res := e.Run(2)
	if !hasEvent(res[0].Failures, func(ev FailureEvent) bool { return ev.Rank == 2 && ev.LostToken >= 0 }) {
		t.Errorf("no lost token recorded: %+v", res[0].Failures)
	}
	checkVisitLogs(t, drill{
		Epochs: 2, Points: 4, Results: res, Subs: toyLogs(p), SurvivorZ: toyZ(p, 0),
		Iters: []ringIter{{Alive: []int{0, 1, 2}, Died: []int{1, 2}}, {Alive: []int{0}}},
	})
}

// TestDeathBetweenIterations: a machine killed after its Z ack but before
// the next W step. Iterate's opening PollDown must mark it dead before
// routes are built, so the iteration runs clean on the survivors with no
// token ever lost.
func TestDeathBetweenIterations(t *testing.T) {
	p := newToyProblem(3, 4, 4)
	net := cluster.NewNetwork(4)
	e := NewOn(p, Config{P: 3, Epochs: 1, Seed: 5, RescueTimeout: fastRescue}, net, p.machine)
	defer e.Shutdown()
	r0 := e.Iterate()
	net.Endpoint(1).Abort()
	r1 := e.Iterate()
	if len(r1.Failures) != 1 {
		t.Errorf("failures = %+v, want one clean death", r1.Failures)
	}
	checkVisitLogs(t, drill{
		Epochs: 1, Points: 4, Results: []IterationResult{r0, r1}, Subs: toyLogs(p), SurvivorZ: toyZ(p, 0, 2),
		Iters: []ringIter{{Alive: []int{0, 1, 2}}, {Alive: []int{0, 2}, Died: []int{1}}},
	})
}

// TestFailureOnLaterIterationOnly arms the kill between iterations: two
// healthy iterations, then machine 1 dies at its second forward of the third.
func TestFailureOnLaterIterationOnly(t *testing.T) {
	p := newToyProblem(2, 3, 2)
	e, fab := chaosEngine(t, p, Config{P: 2, Epochs: 1, Seed: 21})
	res := e.Run(2)
	fab.Arm(killAt(1, tagToken, 1))
	res = append(res, e.Iterate())
	checkVisitLogs(t, drill{
		Epochs: 1, Points: 3, Results: res, Subs: toyLogs(p), SurvivorZ: toyZ(p, 0),
		Iters: []ringIter{{Alive: []int{0, 1}}, {Alive: []int{0, 1}}, {Alive: []int{0, 1}, Died: []int{1}}},
	})
}

// TestEngineUnderChaosKill adds schedule noise to the kill: every visit, and
// so every token forward, is delayed at random, so tokens reach the dying
// machine in orders the other drills never see.
func TestEngineUnderChaosKill(t *testing.T) {
	p := newToyProblem(3, 4, 5)
	for _, sub := range p.toys() {
		sub.jitter = 200 * time.Microsecond
	}
	e, _ := chaosEngine(t, p, Config{P: 3, Epochs: 2, Seed: 99}, killAt(1, tagToken, 2))
	res := e.Run(2)
	checkVisitLogs(t, drill{
		Epochs: 2, Points: 4, Results: res, Subs: toyLogs(p), SurvivorZ: toyZ(p, 0, 2),
		Iters: []ringIter{{Alive: []int{0, 1, 2}, Died: []int{1}}, {Alive: []int{0, 2}}},
	})
}

// stallZ wraps a machine's Problem and holds shard `shard`'s Z step until
// release is closed: a live machine that is merely slow.
type stallZ struct {
	*toyProblem
	shard   int
	release chan struct{}
}

func (p stallZ) ZStep(shard int, model []Submodel) int {
	if shard == p.shard {
		<-p.release
	}
	return p.toyProblem.ZStep(shard, model)
}

// TestStragglerDeclaredDeadDoesNotCrashNextIteration: machine 2 is alive but
// outlasts the Z step's patience, so it is declared dead. Its late ZDone is
// already waiting when the next iteration opens and must be dropped as stale;
// that iteration finishes on {0, 1}.
func TestStragglerDeclaredDeadDoesNotCrashNextIteration(t *testing.T) {
	p, stall := newToyProblem(3, 4, 3), make(chan struct{})
	release := sync.OnceFunc(func() { close(stall) })
	defer release()
	machine := func(i int) Problem {
		return stallZ{toyProblem: p.machine(i).(*toyProblem), shard: 2, release: stall}
	}
	net := cluster.NewNetwork(4)
	e := NewOn(p, Config{P: 3, Epochs: 1, Seed: 5, RescueTimeout: 20 * time.Millisecond}, net, machine)
	defer e.Shutdown()
	r0 := e.Iterate()
	if r0.AliveMachines != 2 || !hasEvent(r0.Failures, func(ev FailureEvent) bool { return ev.Rank == 2 && ev.LostToken == -1 }) {
		t.Fatalf("iteration 0: the straggler was not declared dead: %+v", r0)
	}
	sent := net.Comm(2).Stats().Messages
	release()
	for deadline := time.Now().Add(10 * time.Second); net.Comm(2).Stats().Messages == sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the released straggler never sent its ZDone")
		}
	}
	r1 := e.Iterate()
	if r1.AliveMachines != 2 || len(r1.Failures) != 0 {
		t.Fatalf("iteration 1 after the straggler: %+v", r1)
	}
}

// TestRetireOfDeadMachineReturns: Retire of a machine killed between
// iterations must not wait for a shutdown ack that never comes. The next
// iteration reports the death, once, and the dead rank is never handed out
// again (a killed in-process rank cannot be re-attached).
func TestRetireOfDeadMachineReturns(t *testing.T) {
	p := newToyProblem(3, 4, 3)
	net := cluster.NewNetwork(4)
	e := NewOn(p, Config{P: 3, Epochs: 1, Seed: 5, RescueTimeout: fastRescue}, net, p.machine)
	defer e.Shutdown()
	e.Iterate()
	net.Endpoint(1).Abort()
	done := make(chan struct{})
	go func() {
		e.Retire(1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Retire of a killed machine did not return")
	}
	r1 := e.Iterate()
	if r1.AliveMachines != 2 || len(r1.Failures) != 1 || r1.Failures[0] != (FailureEvent{Rank: 1, LostToken: -1, FromRank: -1}) {
		t.Fatalf("iteration after Retire of a dead machine: %+v", r1)
	}
	if r2 := e.Iterate(); len(r2.Failures) != 0 {
		t.Fatalf("death reported twice: %+v", r2.Failures)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no free ranks") {
			t.Fatalf("AddMachine after Retire of a dead machine: recovered %v, want the no-free-ranks panic", r)
		}
	}()
	e.AddMachine(1)
}

// TestDuplicateFinishIsDropped hands the coordinator both duplicate finishes
// a recovery can leave behind — a token from an incarnation a resurrection
// has superseded, and a second finish for a submodel already done — and
// checks that neither touches the engine's model or the iteration's finish
// record. A finish of the current incarnation then lands, so the drops are
// not the handler ignoring every token.
func TestDuplicateFinishIsDropped(t *testing.T) {
	p := newToyProblem(1, 2, 2)
	e := New(p, Config{P: 1, Seed: 27}, p.machine)
	defer e.Shutdown()
	st := &wState{final: make([]int, 2), done: make([]bool, 2), sent: make([]coordSend, 2)}
	finish := func(id, incarnation int) {
		tok := &Token{SM: &toySub{id: id, count: 99}, ID: id, Version: 7, Incarnation: incarnation}
		e.superviseMsg(cluster.Message{Tag: tagFinished, Payload: tok}, st)
	}
	model := slices.Clone(e.submodels)

	e.incarnation[0] = 1
	finish(0, 0) // stale incarnation
	st.done[1], st.final[1], st.finished = true, 3, 1
	finish(1, 0) // current incarnation, but already done
	if !slices.Equal(e.submodels, model) {
		t.Fatal("a dropped duplicate replaced a submodel")
	}
	if st.finished != 1 || st.done[0] || st.final[0] != 0 || st.final[1] != 3 {
		t.Fatalf("a dropped duplicate changed the finish record: finished=%d done=%v final=%v",
			st.finished, st.done, st.final)
	}

	finish(0, 1)
	if e.submodels[0] == model[0] || st.finished != 2 || !st.done[0] || st.final[0] != 7 {
		t.Fatalf("the current finish did not land: finished=%d done=%v final=%v",
			st.finished, st.done, st.final)
	}
}
