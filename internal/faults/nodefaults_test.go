package faults

import (
	"fmt"
	"testing"

	"cornflakes/internal/sim"
)

// recNode records every fault transition with its engine timestamp.
type recNode struct {
	eng *sim.Engine
	log *[]string
	id  int
}

func (n *recNode) Crash() { *n.log = append(*n.log, fmt.Sprintf("%d crash @%d", n.id, n.eng.Now())) }
func (n *recNode) Recover() {
	*n.log = append(*n.log, fmt.Sprintf("%d recover @%d", n.id, n.eng.Now()))
}
func (n *recNode) SetGray(k float64) {
	*n.log = append(*n.log, fmt.Sprintf("%d gray %.1f @%d", n.id, k, n.eng.Now()))
}

// recSwitch records admin transitions with timestamps.
type recSwitch struct {
	eng *sim.Engine
	log *[]string
}

func (s *recSwitch) SetPortAdmin(addr byte, up bool) {
	*s.log = append(*s.log, fmt.Sprintf("port %d up=%v @%d", addr, up, s.eng.Now()))
}

func runPlan(plan NodeFaultPlan, nNodes int) ([]string, *NodeSchedule) {
	eng := sim.NewEngine()
	var log []string
	nodes := make([]FaultNode, nNodes)
	for i := range nodes {
		nodes[i] = &recNode{eng: eng, log: &log, id: i}
	}
	ns := ScheduleNodePlan(eng, plan, nodes, &recSwitch{eng: eng, log: &log})
	eng.Run()
	return log, ns
}

func TestNodePlanCrashRecovery(t *testing.T) {
	log, ns := runPlan(NodeFaultPlan{
		Seed: 1,
		Crashes: []NodeCrash{
			{Node: 0, At: 100, Downtime: 50},
			{Node: 1, At: 200}, // Downtime 0: never recovers
		},
	}, 2)
	want := []string{"0 crash @100", "0 recover @150", "1 crash @200"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
	if ns.Crashes != 2 || ns.Recoveries != 1 {
		t.Errorf("schedule = %+v, want 2 crashes / 1 recovery", ns)
	}
}

func TestNodePlanGrayWindow(t *testing.T) {
	log, ns := runPlan(NodeFaultPlan{
		Seed: 1,
		Grays: []GrayFailure{
			{Node: 0, At: 100, Duration: 300, Slowdown: 6},
			{Node: 1, At: 200, Slowdown: 4}, // Duration 0: rest of run
		},
	}, 2)
	want := []string{"0 gray 6.0 @100", "1 gray 4.0 @200", "0 gray 1.0 @400"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("log = %v, want %v", log, want)
	}
	if ns.GraysOn != 2 || ns.GraysOff != 1 {
		t.Errorf("schedule = %+v, want 2 on / 1 off", ns)
	}
}

func TestNodePlanFlapCycles(t *testing.T) {
	log, ns := runPlan(NodeFaultPlan{
		Seed:  1,
		Flaps: []PortFlap{{Addr: 3, At: 1000, Down: 100, Count: 3, Period: 500}},
	}, 1)
	if ns.FlapsDown != 3 || ns.FlapsUp != 3 {
		t.Fatalf("schedule = %+v, want 3 down / 3 up", ns)
	}
	want := []string{
		"port 3 up=false @1000", "port 3 up=true @1100",
		"port 3 up=false @1500", "port 3 up=true @1600",
		"port 3 up=false @2000", "port 3 up=true @2100",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

// Jittered flap edges must replay identically from the same seed and
// diverge across seeds.
func TestNodePlanJitterSeeded(t *testing.T) {
	flaps := []PortFlap{{Addr: 2, At: 1000, Down: 200, Count: 4, Period: 1000, Jitter: 150}}
	a, _ := runPlan(NodeFaultPlan{Seed: 7, Flaps: flaps}, 1)
	b, _ := runPlan(NodeFaultPlan{Seed: 7, Flaps: flaps}, 1)
	c, _ := runPlan(NodeFaultPlan{Seed: 8, Flaps: flaps}, 1)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed, different storms:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced an identical jittered storm")
	}
}

// Invalid plan entries are skipped rather than panicking or firing.
func TestNodePlanSkipsInvalid(t *testing.T) {
	log, ns := runPlan(NodeFaultPlan{
		Seed:    1,
		Crashes: []NodeCrash{{Node: -1, At: 10}, {Node: 5, At: 10}},
		Grays:   []GrayFailure{{Node: 0, At: 10, Slowdown: 1.0}, {Node: 9, At: 10, Slowdown: 3}},
		Flaps:   []PortFlap{{Addr: 1, At: 10, Down: 100, Count: 0}, {Addr: 1, At: 10, Down: 0, Count: 2}},
	}, 2)
	if len(log) != 0 {
		t.Errorf("invalid entries fired: %v", log)
	}
	if *ns != (NodeSchedule{}) {
		t.Errorf("schedule = %+v, want all-zero", ns)
	}
}

// A nil PortAdmin skips flaps without touching the node entries.
func TestNodePlanNilSwitch(t *testing.T) {
	eng := sim.NewEngine()
	var log []string
	nodes := []FaultNode{&recNode{eng: eng, log: &log, id: 0}}
	ns := ScheduleNodePlan(eng, NodeFaultPlan{
		Crashes: []NodeCrash{{Node: 0, At: 50, Downtime: 10}},
		Flaps:   []PortFlap{{Addr: 1, At: 10, Down: 5, Count: 3, Period: 20}},
	}, nodes, nil)
	eng.Run()
	if ns.FlapsDown != 0 || ns.FlapsUp != 0 {
		t.Errorf("flaps fired with nil switch: %+v", ns)
	}
	if ns.Crashes != 1 || ns.Recoveries != 1 {
		t.Errorf("crash entries lost: %+v", ns)
	}
}

// Transitions scheduled at or before "now" are clamped just after now, so a
// plan armed mid-run never tries to rewind the engine.
func TestNodePlanClampsPastTimes(t *testing.T) {
	eng := sim.NewEngine()
	var log []string
	nodes := []FaultNode{&recNode{eng: eng, log: &log, id: 0}}
	eng.After(500, func() {
		ScheduleNodePlan(eng, NodeFaultPlan{
			Crashes: []NodeCrash{{Node: 0, At: 100, Downtime: 1}},
		}, nodes, nil)
	})
	eng.Run()
	// Both edges are in the past; both clamp to now+1 and fire in plan
	// order — crash strictly before recovery.
	want := []string{"0 crash @501", "0 recover @501"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

// Period ≤ Down is clamped so consecutive cycles cannot overlap: every down
// edge must come strictly after the previous up edge.
func TestNodePlanPeriodClamp(t *testing.T) {
	log, ns := runPlan(NodeFaultPlan{
		Seed:  3,
		Flaps: []PortFlap{{Addr: 1, At: 100, Down: 50, Count: 3, Period: 10}},
	}, 1)
	if ns.FlapsDown != 3 || ns.FlapsUp != 3 {
		t.Fatalf("schedule = %+v, want 3/3", ns)
	}
	// The recSwitch log is in execution order; alternating down/up proves
	// no overlap.
	for i, e := range log {
		wantUp := i%2 == 1
		if got := e[len("port 1 up=")] == 't'; got != wantUp {
			t.Fatalf("log[%d] = %q breaks down/up alternation (%v)", i, e, log)
		}
	}
}
