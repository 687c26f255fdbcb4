// Package env models the overall IoT environment of the Jarvis paper
// (Section III): a finite state machine over k devices, η users, and m apps,
// with container-based authorization (locations and groups), the five
// state-transition constraints of Section III-B, and episodic monitoring
// (Definition 2) with time period T and interval I.
package env

import (
	"errors"
	"fmt"
	"strings"

	"jarvis/internal/device"
)

// ManualAppID is the pseudo app ap_0 that, by the paper's convention,
// denotes manual operations by a user.
const ManualAppID = 0

// State is the overall environment state S_t: one device-state per device,
// indexed by device position in the environment.
type State []device.StateID

// Clone returns an independent copy of the state.
func (s State) Clone() State {
	out := make(State, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two states are identical.
func (s State) Equal(o State) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Action is the overall environment action A_t: at most one device-action
// per device (device.NoAction for devices left untouched this interval).
type Action []device.ActionID

// Clone returns an independent copy of the action.
func (a Action) Clone() Action {
	out := make(Action, len(a))
	copy(out, a)
	return out
}

// IsNoOp reports whether the action touches no device.
func (a Action) IsNoOp() bool {
	for _, x := range a {
		if x != device.NoAction {
			return false
		}
	}
	return true
}

// NoOp returns the all-NoAction action for k devices.
func NoOp(k int) Action {
	a := make(Action, k)
	for i := range a {
		a[i] = device.NoAction
	}
	return a
}

// User is one of the η environment users. Authorization is expressed as the
// set of apps the user may invoke (app subscription policies).
type User struct {
	ID   int
	Name string
	// Apps the user is authorized to use, by app ID.
	Apps map[int]bool
}

// App is one of the m apps (ap_0 is the manual-operation pseudo app).
// Device subscription policies are expressed as the set of devices the app
// may act on.
type App struct {
	ID   int
	Name string
	// Devices the app is subscribed to (may act on), by device index.
	Devices map[int]bool
}

// Placement is the container context of a device: its location and group
// per the paper's hierarchical container model.
type Placement struct {
	Location string
	Group    string
}

// Request asks the environment to execute one device-action on behalf of a
// user through an app. Manual operations use App == ManualAppID.
type Request struct {
	User   int
	App    int
	Device int
	Action device.ActionID
}

// Denial explains why a Request was rejected by the constraint checker.
type Denial struct {
	Request Request
	Reason  string
}

func (d Denial) String() string {
	return fmt.Sprintf("request{user=%d app=%d dev=%d act=%d}: %s",
		d.Request.User, d.Request.App, d.Request.Device, d.Request.Action, d.Reason)
}

// Environment is the IoT environment FSM (Definition 1). Build one with
// NewBuilder. A built Environment is immutable and safe for concurrent use.
type Environment struct {
	devices    []*device.Device
	placements []Placement
	users      []User
	apps       []App

	byName map[string]int

	// radix encoding support for compact state keys.
	radix     []uint64
	numStates uint64
}

// K returns the number of devices.
func (e *Environment) K() int { return len(e.devices) }

// Device returns the i-th device.
func (e *Environment) Device(i int) *device.Device { return e.devices[i] }

// Devices returns the device list (shared, read-only by convention).
func (e *Environment) Devices() []*device.Device {
	out := make([]*device.Device, len(e.devices))
	copy(out, e.devices)
	return out
}

// DeviceIndex looks a device up by label.
func (e *Environment) DeviceIndex(name string) (int, bool) {
	i, ok := e.byName[name]
	return i, ok
}

// Placement returns the container context of device i.
func (e *Environment) Placement(i int) Placement {
	if i < 0 || i >= len(e.placements) {
		return Placement{}
	}
	return e.placements[i]
}

// Users returns the environment's users.
func (e *Environment) Users() []User { return copyUsers(e.users) }

// Apps returns the environment's apps.
func (e *Environment) Apps() []App { return copyApps(e.apps) }

// User returns the user with the given ID.
func (e *Environment) User(id int) (User, bool) {
	for _, u := range e.users {
		if u.ID == id {
			return u, true
		}
	}
	return User{}, false
}

// App returns the app with the given ID.
func (e *Environment) App(id int) (App, bool) {
	for _, a := range e.apps {
		if a.ID == id {
			return a, true
		}
	}
	return App{}, false
}

// NumStateCombinations returns ν = Π i_ss, the size of the composite state
// space, saturating at MaxUint64.
func (e *Environment) NumStateCombinations() uint64 { return e.numStates }

// StateKey encodes a composite state into a compact uint64 using
// mixed-radix positional encoding. It panics only on malformed states that
// violate the Environment's own invariants; callers constructing states by
// hand should use ValidState first.
func (e *Environment) StateKey(s State) uint64 {
	var key uint64
	for i, st := range s {
		key += uint64(st) * e.radix[i]
	}
	return key
}

// DecodeState inverts StateKey.
func (e *Environment) DecodeState(key uint64) State {
	s := make(State, len(e.devices))
	for i := range e.devices {
		n := uint64(e.devices[i].NumStates())
		s[i] = device.StateID((key / e.radix[i]) % n)
	}
	return s
}

// ActionKey encodes a composite action into a compact uint64 using
// mixed-radix encoding over each device's action count plus one (the extra
// slot encodes NoAction).
func (e *Environment) ActionKey(a Action) uint64 {
	var key uint64
	mult := uint64(1)
	for i, ac := range a {
		n := uint64(e.devices[i].NumActions()) + 1
		key += uint64(ac+1) * mult
		mult *= n
	}
	return key
}

// DecodeAction inverts ActionKey.
func (e *Environment) DecodeAction(key uint64) Action {
	a := make(Action, len(e.devices))
	for i := range e.devices {
		n := uint64(e.devices[i].NumActions()) + 1
		a[i] = device.ActionID(key%n) - 1
		key /= n
	}
	return a
}

// ValidState reports whether every device-state index is in range.
func (e *Environment) ValidState(s State) bool {
	if len(s) != len(e.devices) {
		return false
	}
	for i, st := range s {
		if st < 0 || int(st) >= e.devices[i].NumStates() {
			return false
		}
	}
	return true
}

// Transition applies the overall transition function Δ(S_t, A_t): every
// device's δ_i is applied to its action. Invalid device actions are
// rejected with an error (the environment state is never partially
// updated).
func (e *Environment) Transition(s State, a Action) (State, error) {
	next := make(State, len(s))
	if err := e.TransitionInto(next, s, a); err != nil {
		return nil, err
	}
	return next, nil
}

// TransitionInto is Transition writing into a caller-provided destination
// state, so hot loops (episode recording, candidate-action scoring) can
// reuse one buffer instead of allocating per step. dst may alias s. On
// error dst's contents are unspecified.
func (e *Environment) TransitionInto(dst, s State, a Action) error {
	switch i := e.transitionInto(dst, s, a); {
	case i < 0:
		return nil
	case i == len(e.devices):
		return fmt.Errorf("env: transition arity mismatch: %d devices, state %d, action %d, dst %d",
			len(e.devices), len(s), len(a), len(dst))
	default:
		d := e.devices[i]
		return fmt.Errorf("env: device %s: action %s invalid in state %s",
			d.Name(), d.ActionName(a[i]), d.StateName(s[i]))
	}
}

// TransitionOK is TransitionInto reporting only whether the transition is
// valid. Loops that probe many candidate actions and discard the invalid
// ones (P_safe checks) call it to skip building an error per candidate.
func (e *Environment) TransitionOK(dst, s State, a Action) bool {
	return e.transitionInto(dst, s, a) < 0
}

// transitionInto applies Δ into dst. It returns -1 on success, len(devices)
// on an arity mismatch, or the index of the first device that rejects its
// action.
func (e *Environment) transitionInto(dst, s State, a Action) int {
	if len(s) != len(e.devices) || len(a) != len(e.devices) || len(dst) != len(e.devices) {
		return len(e.devices)
	}
	for i := range e.devices {
		ns, ok := e.devices[i].Next(s[i], a[i])
		if !ok {
			return i
		}
		dst[i] = ns
	}
	return -1
}

// Apply resolves a set of requests for one interval into a composite action
// under the paper's five constraints:
//
//  1. one action per device per interval,
//  2. only authorized users may use an app,
//  3. only apps subscribed to a device may act on it,
//  4. only one app acts on a device per interval (first come, first served),
//  5. a device changes state at most once per interval.
//
// It returns the resulting composite action, the next state, and the list
// of denied requests with reasons. Denials never abort the interval: the
// remaining requests still apply, matching the FCFS semantics.
func (e *Environment) Apply(s State, reqs []Request) (Action, State, []Denial) {
	act := NoOp(len(e.devices))
	var denials []Denial
	claimed := make(map[int]int, len(reqs)) // device -> app that claimed it
	for _, r := range reqs {
		if r.Device < 0 || r.Device >= len(e.devices) {
			denials = append(denials, Denial{r, "unknown device"})
			continue
		}
		u, ok := e.User(r.User)
		if !ok {
			denials = append(denials, Denial{r, "unknown user"})
			continue
		}
		ap, ok := e.App(r.App)
		if !ok {
			denials = append(denials, Denial{r, "unknown app"})
			continue
		}
		if !u.Apps[r.App] {
			denials = append(denials, Denial{r, "user not authorized for app"})
			continue
		}
		if !ap.Devices[r.Device] {
			denials = append(denials, Denial{r, "app not subscribed to device"})
			continue
		}
		if prev, taken := claimed[r.Device]; taken {
			denials = append(denials, Denial{r, fmt.Sprintf("device already claimed by app %d this interval", prev)})
			continue
		}
		if _, ok := e.devices[r.Device].Next(s[r.Device], r.Action); !ok {
			denials = append(denials, Denial{r, "action invalid in current device state"})
			continue
		}
		claimed[r.Device] = r.App
		act[r.Device] = r.Action
	}
	next, err := e.Transition(s, act)
	if err != nil {
		// Unreachable given the per-request validity check above, but keep
		// the environment total: fall back to no-op.
		next = s.Clone()
		act = NoOp(len(e.devices))
	}
	return act, next, denials
}

// FormatState renders a composite state as the paper does:
// (p_{0_x}, p_{1_y}, ...).
func (e *Environment) FormatState(s State) string {
	parts := make([]string, len(s))
	for i, st := range s {
		parts[i] = e.devices[i].StateName(st)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// FormatAction renders a composite action, using "O" for untouched devices.
func (e *Environment) FormatAction(a Action) string {
	parts := make([]string, len(a))
	for i, ac := range a {
		if ac == device.NoAction {
			parts[i] = "O"
		} else {
			parts[i] = e.devices[i].ActionName(ac)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func copyUsers(in []User) []User {
	out := make([]User, len(in))
	for i, u := range in {
		apps := make(map[int]bool, len(u.Apps))
		for k, v := range u.Apps {
			apps[k] = v
		}
		u.Apps = apps
		out[i] = u
	}
	return out
}

func copyApps(in []App) []App {
	out := make([]App, len(in))
	for i, a := range in {
		devs := make(map[int]bool, len(a.Devices))
		for k, v := range a.Devices {
			devs[k] = v
		}
		a.Devices = devs
		out[i] = a
	}
	return out
}

// Builder assembles an Environment.
type Builder struct {
	devices    []*device.Device
	placements []Placement
	users      []User
	apps       []App
	errs       []error
}

// NewBuilder starts an empty environment.
func NewBuilder() *Builder { return &Builder{} }

// AddDevice registers a device with its container placement and returns its
// index.
func (b *Builder) AddDevice(d *device.Device, p Placement) int {
	b.devices = append(b.devices, d)
	b.placements = append(b.placements, p)
	return len(b.devices) - 1
}

// AddUser registers a user authorized for the given app IDs.
func (b *Builder) AddUser(name string, appIDs ...int) int {
	id := len(b.users)
	apps := make(map[int]bool, len(appIDs))
	for _, a := range appIDs {
		apps[a] = true
	}
	b.users = append(b.users, User{ID: id, Name: name, Apps: apps})
	return id
}

// AuthorizeUser grants an existing user access to additional apps.
func (b *Builder) AuthorizeUser(userID int, appIDs ...int) *Builder {
	if userID < 0 || userID >= len(b.users) {
		b.errs = append(b.errs, fmt.Errorf("authorize unknown user %d", userID))
		return b
	}
	for _, a := range appIDs {
		b.users[userID].Apps[a] = true
	}
	return b
}

// AddApp registers an app subscribed to the given device indices and
// returns its app ID. The first app added should conventionally be the
// manual-operation pseudo app ap_0.
func (b *Builder) AddApp(name string, deviceIdx ...int) int {
	id := len(b.apps)
	devs := make(map[int]bool, len(deviceIdx))
	for _, d := range deviceIdx {
		devs[d] = true
	}
	b.apps = append(b.apps, App{ID: id, Name: name, Devices: devs})
	return id
}

// Build finalizes the environment.
func (b *Builder) Build() (*Environment, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if len(b.devices) == 0 {
		return nil, errors.New("env: no devices")
	}
	byName := make(map[string]int, len(b.devices))
	for i, d := range b.devices {
		if _, dup := byName[d.Name()]; dup {
			return nil, fmt.Errorf("env: duplicate device label %q", d.Name())
		}
		byName[d.Name()] = i
	}
	for _, a := range b.apps {
		for di := range a.Devices {
			if di < 0 || di >= len(b.devices) {
				return nil, fmt.Errorf("env: app %q subscribed to unknown device %d", a.Name, di)
			}
		}
	}
	radix := make([]uint64, len(b.devices))
	total := uint64(1)
	for i, d := range b.devices {
		radix[i] = total
		n := uint64(d.NumStates())
		if n == 0 {
			return nil, fmt.Errorf("env: device %q has no states", d.Name())
		}
		if total > (1<<63)/n {
			return nil, fmt.Errorf("env: composite state space exceeds 2^63 combinations")
		}
		total *= n
	}
	e := &Environment{
		devices:    append([]*device.Device(nil), b.devices...),
		placements: append([]Placement(nil), b.placements...),
		users:      copyUsers(b.users),
		apps:       copyApps(b.apps),
		byName:     byName,
		radix:      radix,
		numStates:  total,
	}
	return e, nil
}

// MustBuild is Build for statically known-correct environments.
func (b *Builder) MustBuild() *Environment {
	e, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("env: MustBuild: %v", err))
	}
	return e
}
