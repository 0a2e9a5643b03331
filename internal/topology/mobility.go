package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Random-waypoint mobility: each sensor node picks a waypoint uniformly
// in the deployment square, moves toward it at a per-leg speed, pauses,
// and picks the next one. The sink stays fixed. Every Step produces a
// fresh connected *Network snapshot suitable for EpochSet.Advance — the
// generator is the churn-heavy counterpart of NewRandomGeometric for
// dynamic-traceback workloads (ROADMAP: mobile/random-waypoint
// placements).

// WaypointConfig parameterizes NewWaypoint.
type WaypointConfig struct {
	// Nodes is the number of mobile sensor nodes (the sink is additional
	// and never moves).
	Nodes int
	// Side is the edge length of the square deployment area.
	Side float64
	// RadioRange is the communication radius.
	RadioRange float64
	// MinSpeed and MaxSpeed bound the distance a node travels per Step
	// while on a leg. Each leg draws its speed uniformly from the range.
	MinSpeed, MaxSpeed float64
	// Pause is how many Steps a node rests after reaching a waypoint.
	Pause int
	// SinkAtCorner places the sink at (0,0) instead of the area center.
	SinkAtCorner bool
	// Seed drives placement, waypoint choice and speeds.
	Seed int64
	// MaxAttempts bounds the connectivity retries: for the initial
	// placement it is rejection-sampling rounds; for Step it is how many
	// extra movement sub-steps are taken to escape a disconnected
	// configuration. Zero means a sensible default.
	MaxAttempts int
}

// Waypoint is a deterministic random-waypoint walker. It is owned by the
// driving goroutine (the fault/mobility machinery); the *Network
// snapshots it returns are immutable and may be shared freely.
type Waypoint struct {
	cfg    WaypointConfig
	rng    *rand.Rand
	pos    []Point
	target []Point
	speed  []float64
	pause  []int
	cur    *Network
}

// NewWaypoint places the nodes like NewRandomGeometric (retrying until
// connected) and assigns every node its first waypoint leg.
func NewWaypoint(cfg WaypointConfig) (*Waypoint, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("topology: need at least 1 mobile node, got %d", cfg.Nodes)
	}
	if cfg.Side <= 0 || cfg.RadioRange <= 0 {
		return nil, fmt.Errorf("topology: side %g and radio range %g must be positive", cfg.Side, cfg.RadioRange)
	}
	if cfg.MinSpeed < 0 || cfg.MaxSpeed < cfg.MinSpeed {
		return nil, fmt.Errorf("topology: speed range [%g, %g] invalid", cfg.MinSpeed, cfg.MaxSpeed)
	}
	if cfg.MaxSpeed == 0 {
		cfg.MaxSpeed = cfg.RadioRange / 4
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 50
	}
	w := &Waypoint{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		pos:    make([]Point, cfg.Nodes+1),
		target: make([]Point, cfg.Nodes+1),
		speed:  make([]float64, cfg.Nodes+1),
		pause:  make([]int, cfg.Nodes+1),
	}
	for a := 0; a < cfg.MaxAttempts; a++ {
		if cfg.SinkAtCorner {
			w.pos[0] = Point{}
		} else {
			w.pos[0] = Point{X: cfg.Side / 2, Y: cfg.Side / 2}
		}
		for i := 1; i <= cfg.Nodes; i++ {
			w.pos[i] = Point{X: w.rng.Float64() * cfg.Side, Y: w.rng.Float64() * cfg.Side}
		}
		nw, err := w.snapshot()
		if errors.Is(err, errUnreachable) {
			continue
		}
		if err != nil {
			return nil, err // a limit no redraw can lift
		}
		w.cur = nw
		for i := 1; i <= cfg.Nodes; i++ {
			w.newLeg(i)
		}
		return w, nil
	}
	return nil, fmt.Errorf("topology: no connected waypoint placement for %d nodes, side %g, range %g after %d attempts",
		cfg.Nodes, cfg.Side, cfg.RadioRange, cfg.MaxAttempts)
}

// Network returns the current connected snapshot.
func (w *Waypoint) Network() *Network { return w.cur }

// Step advances every node one movement step and returns the resulting
// connected snapshot. If a step disconnects the field, movement continues
// (up to MaxAttempts sub-steps) until connectivity returns — the random
// waypoint process is recurrent, so with a sane density this converges
// quickly.
func (w *Waypoint) Step() (*Network, error) {
	for a := 0; a < w.cfg.MaxAttempts; a++ {
		for i := 1; i <= w.cfg.Nodes; i++ {
			w.moveNode(i)
		}
		nw, err := w.snapshot()
		if errors.Is(err, errUnreachable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		w.cur = nw
		return nw, nil
	}
	return nil, fmt.Errorf("topology: waypoint field stayed disconnected for %d sub-steps", w.cfg.MaxAttempts)
}

// moveNode advances node i along its leg, honoring its pause counter and
// starting a new leg when the waypoint is reached.
func (w *Waypoint) moveNode(i int) {
	if w.pause[i] > 0 {
		w.pause[i]--
		return
	}
	dx := w.target[i].X - w.pos[i].X
	dy := w.target[i].Y - w.pos[i].Y
	d := math.Hypot(dx, dy)
	if d <= w.speed[i] {
		w.pos[i] = w.target[i]
		w.pause[i] = w.cfg.Pause
		w.newLeg(i)
		return
	}
	w.pos[i].X += dx / d * w.speed[i]
	w.pos[i].Y += dy / d * w.speed[i]
}

// newLeg draws node i's next waypoint and leg speed.
func (w *Waypoint) newLeg(i int) {
	w.target[i] = Point{X: w.rng.Float64() * w.cfg.Side, Y: w.rng.Float64() * w.cfg.Side}
	w.speed[i] = w.cfg.MinSpeed + w.rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed)
}

// snapshot freezes the current positions into an immutable Network. The
// position slice is copied: the walker keeps mutating its own.
func (w *Waypoint) snapshot() (*Network, error) {
	pos := make([]Point, len(w.pos))
	copy(pos, w.pos)
	return fromPositions(pos, w.cfg.RadioRange)
}
