package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"jarvis/internal/dataset"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/reward"
	"jarvis/internal/smarthome"
)

// Table3Config sizes the Table III experiment.
type Table3Config struct {
	Seed         int64
	LearningDays int
}

// Table3Row compares the highest-quality action with the highest-quality
// safe action for one (functionality, trigger) pair.
type Table3Row struct {
	Functionality string
	TriggerDesc   string
	Trigger       string
	// Unconstrained is the action a pure functionality optimizer picks;
	// Safe is Jarvis's constrained pick.
	Unconstrained     string
	UnconstrainedSafe bool
	SafeAction        string
	// BestInstant/SafeInstant report the preferred acting time (minutes
	// from midnight) for the timing-sensitive rows, -1 otherwise.
	BestInstant, SafeInstant int
}

// Table3Result is the action-quality comparison of Table III.
type Table3Result struct {
	Rows []Table3Row
	// UnsafeUnconstrained counts rows whose unconstrained pick violates
	// P_safe.
	UnsafeUnconstrained int
}

// Table3 reproduces the Table III comparison: for each of the paper's
// eight trigger scenarios across the three functionalities, the
// highest-quality action under pure functionality optimization
// (unconstrained exploration) is compared with the highest-quality safe
// action under Jarvis (R_smart + P_safe).
func Table3(cfg Table3Config) (*Table3Result, error) {
	if cfg.LearningDays <= 0 {
		// Two weeks give the state coverage the home/weekend scenarios
		// need (the paper's qualitative table assumes a converged SPL).
		cfg.LearningDays = 14
	}
	lab, err := NewLab(LabConfig{
		Seed:         cfg.Seed,
		LearningDays: cfg.LearningDays,
		Profile:      dataset.HomeAConfig(),
	})
	if err != nil {
		return nil, err
	}
	h := lab.Home
	e := h.Env
	n := smarthome.InstancesPerDay

	// One representative day's prices for the cost functionality.
	ctx := dataset.NewDayContext(LearningStart.AddDate(0, 0, 14), dataset.DefaultContext(), lab.Rng)

	newReward := func(fs []reward.Functionality) (*reward.Smart, error) {
		return reward.New(e, reward.Config{
			Functionalities: fs,
			Preferred:       lab.Pref,
			Instances:       n,
			Routine:         lab.RoutineDevices(),
		})
	}
	energyOnly, err := newReward([]reward.Functionality{{Name: "energy", Weight: 1, F: smarthome.EnergyReward(e)}})
	if err != nil {
		return nil, err
	}
	// The cost scenarios blend in the implicit comfort need: the paper's
	// rows assume heating/cooling must happen and ask *when* — a pure
	// cost optimizer would simply never run the HVAC.
	costOnly, err := newReward([]reward.Functionality{
		{Name: "cost", Weight: 0.7, F: smarthome.CostReward(e, ctx.Prices)},
		{Name: "comfort", Weight: 0.3, F: smarthome.ComfortReward(e, h.TempSensor, h.Thermostat)},
	})
	if err != nil {
		return nil, err
	}
	comfortOnly, err := newReward([]reward.Functionality{{Name: "comfort", Weight: 1, F: smarthome.ComfortReward(e, h.TempSensor, h.Thermostat)}})
	if err != nil {
		return nil, err
	}

	// Trigger scenarios, mirroring the paper's rows. Each trigger state is
	// picked from the states actually reached during learning (matching a
	// partial pattern), so the safe-action column reflects what the SPL
	// can sanction; a hand-built state is the fallback.
	behaviors := lab.SPL.Behaviors()
	decoded := make([]env.State, len(behaviors))
	for i, b := range behaviors {
		decoded[i] = e.DecodeState(b.State)
	}
	pick := func(pattern map[int]device.StateID, wantDev int, wantAct device.ActionID) env.State {
		var fallback env.State
		for bi, b := range behaviors {
			st := decoded[bi]
			match := true
			for dev, want := range pattern {
				if st[dev] != want {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if fallback == nil {
				fallback = st
			}
			if wantDev >= 0 {
				if a := e.DecodeAction(b.Action); a[wantDev] == wantAct {
					return st
				}
			}
		}
		if fallback != nil {
			return fallback
		}
		st := h.InitialState()
		for dev, want := range pattern {
			st[dev] = want
		}
		return st
	}

	departure := pick(map[int]device.StateID{
		h.Lock:        smarthome.LockLockedOutside,
		h.DoorSensor:  smarthome.DoorSensing,
		h.LivingLight: 1,
	}, h.LivingLight, 0 /* power_off */)

	optimalReached := pick(map[int]device.StateID{
		h.TempSensor: smarthome.TempOptimal,
		h.Thermostat: smarthome.ThermostatHeat,
	}, h.Thermostat, smarthome.ThermostatActOff)

	coldHome := pick(map[int]device.StateID{
		h.Lock:       smarthome.LockLockedInside,
		h.TempSensor: smarthome.TempBelow,
	}, h.Thermostat, smarthome.ThermostatActHeat)

	hotHome := pick(map[int]device.StateID{
		h.Lock:       smarthome.LockLockedInside,
		h.TempSensor: smarthome.TempAbove,
	}, h.Thermostat, smarthome.ThermostatActCool)

	coldAny := pick(map[int]device.StateID{h.TempSensor: smarthome.TempBelow},
		h.Thermostat, smarthome.ThermostatActHeat)
	hotAny := pick(map[int]device.StateID{h.TempSensor: smarthome.TempAbove},
		h.Thermostat, smarthome.ThermostatActCool)

	type scenario struct {
		fn       string
		rs       *reward.Smart
		desc     string
		s        env.State
		t        int
		timing   bool // report best acting instant for the thermostat
		thermAct device.ActionID
	}
	scenarios := []scenario{
		{"energy", energyOnly, "User leaves the house and locks the door", departure, 8*60 + 5, false, device.NoAction},
		{"energy", energyOnly, "Optimal temperature is reached", optimalReached, 15 * 60, false, device.NoAction},
		{"cost", costOnly, "Temperature drops below optimum, user at home", coldHome, 17 * 60, true, smarthome.ThermostatActHeat},
		{"cost", costOnly, "Temperature goes above optimum, user at home", hotHome, 13 * 60, true, smarthome.ThermostatActCool},
		{"cost", costOnly, "Optimal temperature is reached", optimalReached, 15 * 60, false, device.NoAction},
		{"comfort", comfortOnly, "Temperature drops below optimum", coldAny, 10 * 60, true, smarthome.ThermostatActHeat},
		{"comfort", comfortOnly, "Temperature goes above optimum", hotAny, 14 * 60, true, smarthome.ThermostatActCool},
		{"comfort", comfortOnly, "Optimal temperature is reached", optimalReached, 15 * 60, false, device.NoAction},
	}

	// The scenarios share only read-only state (the reward functions, the
	// learned table, the behavior index) — fan them across cores.
	res := &Table3Result{}
	rows, err := Parallel(Seeds(cfg.Seed, len(scenarios)), func(i int, _ *rand.Rand) (Table3Row, error) {
		sc := scenarios[i]
		unAct := bestAction(lab, sc.rs, sc.s, sc.t, false)
		safeAct := bestAction(lab, sc.rs, sc.s, sc.t, true)
		row := Table3Row{
			Functionality:     sc.fn,
			TriggerDesc:       sc.desc,
			Trigger:           e.FormatState(sc.s),
			Unconstrained:     e.FormatAction(unAct),
			UnconstrainedSafe: transitionSafe(lab, sc.s, unAct),
			SafeAction:        e.FormatAction(safeAct),
			BestInstant:       -1,
			SafeInstant:       -1,
		}
		if sc.timing {
			row.BestInstant = bestInstant(lab, sc.rs, sc.s, sc.thermAct, false)
			row.SafeInstant = bestInstant(lab, sc.rs, sc.s, sc.thermAct, true)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	for _, row := range rows {
		if !row.UnconstrainedSafe {
			res.UnsafeUnconstrained++
		}
	}
	return res, nil
}

// bestAction returns the action maximizing quality at (s, t). The
// unconstrained optimizer greedily composes device actions by pure
// functionality utility; the constrained optimizer picks among the safe
// choices — the composite behaviors observed naturally from s (plus
// idling) — by R_smart.
func bestAction(lab *Lab, rs *reward.Smart, s env.State, t int, constrained bool) env.Action {
	e := lab.Home.Env
	k := e.K()
	next := make(env.State, k) // transition-validity scratch
	if constrained {
		best := env.NoOp(k)
		bestQ := rs.R(s, best, t)
		for _, a := range lab.BehaviorsFrom(e.StateKey(s)) {
			if !e.TransitionOK(next, s, a) {
				continue
			}
			if q := rs.R(s, a, t); q > bestQ {
				best, bestQ = a, q
			}
		}
		return best
	}
	act := env.NoOp(k)
	cand := make(env.Action, k) // candidate scratch, reused per device action
	quality := func(a env.Action) (float64, bool) {
		if !e.TransitionOK(next, s, a) {
			return 0, false
		}
		return rs.Utility(s, a, t), true
	}
	cur, _ := quality(act)
	for round := 0; round < k; round++ {
		bestGain := 0.0
		bestDev, bestAct := -1, device.NoAction
		for dev := 0; dev < k; dev++ {
			if act[dev] != device.NoAction {
				continue
			}
			for _, a := range e.Device(dev).ValidActions(s[dev]) {
				copy(cand, act)
				cand[dev] = a
				q, ok := quality(cand)
				if !ok {
					continue
				}
				if gain := q - cur; gain > bestGain+1e-12 {
					bestGain, bestDev, bestAct = gain, dev, a
				}
			}
		}
		if bestDev < 0 {
			break
		}
		act[bestDev] = bestAct
		cur += bestGain
	}
	return act
}

// bestInstant finds the acting time (within the rest of the day) that
// maximizes quality for the single thermostat action.
func bestInstant(lab *Lab, rs *reward.Smart, s env.State, thermAct device.ActionID, constrained bool) int {
	e := lab.Home.Env
	act := env.NoOp(e.K())
	act[lab.Home.Thermostat] = thermAct
	if constrained && !transitionSafe(lab, s, act) {
		return -1
	}
	best, bestT := -1e18, -1
	for t := 0; t < smarthome.InstancesPerDay; t += 15 {
		var q float64
		if constrained {
			q = rs.R(s, act, t)
		} else {
			q = rs.Utility(s, act, t)
		}
		if q > best {
			best, bestT = q, t
		}
	}
	return bestT
}

func transitionSafe(lab *Lab, s env.State, a env.Action) bool {
	e := lab.Home.Env
	next, err := e.Transition(s, a)
	if err != nil {
		return false
	}
	return lab.Table.Safe(e.StateKey(s), e.StateKey(next))
}

// String renders the comparison.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table III: action quality, unconstrained vs constrained exploration\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "[%s] %s\n", row.Functionality, row.TriggerDesc)
		fmt.Fprintf(&b, "  trigger:        %s\n", row.Trigger)
		verdict := "SAFE"
		if !row.UnconstrainedSafe {
			verdict = "UNSAFE"
		}
		fmt.Fprintf(&b, "  high quality:   %s  [%s]\n", row.Unconstrained, verdict)
		fmt.Fprintf(&b, "  high qual safe: %s\n", row.SafeAction)
		if row.BestInstant >= 0 || row.SafeInstant >= 0 {
			fmt.Fprintf(&b, "  act at: unconstrained t_p=%s, safe t'=%s\n",
				minuteClock(row.BestInstant), minuteClock(row.SafeInstant))
		}
	}
	fmt.Fprintf(&b, "unconstrained picks violating P_safe: %d/%d\n",
		r.UnsafeUnconstrained, len(r.Rows))
	return b.String()
}

func minuteClock(m int) string {
	if m < 0 {
		return "-"
	}
	return fmt.Sprintf("%02d:%02d", m/60, m%60)
}
