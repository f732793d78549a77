// Package qlearn implements the machine-learning-agent application of the
// paper (§4.1): an autonomous agent learns, in a simulated environment,
// sequences of steps that result in rewards; Pando distributes the search
// for the optimal learning rate — a hyperparameter — across devices, one
// simulation per hyperparameter value. Throughput is measured in
// simulation steps per second (Table 2's Steps/s column).
package qlearn

import (
	"fmt"
	"math/rand"
)

// Action is one of the four grid moves.
type Action int

// The four actions.
const (
	Up Action = iota
	Down
	Left
	Right
)

// NumActions is the size of the action space.
const NumActions = 4

// GridWorld is the simulated environment: the agent starts at (0,0) and
// must reach the goal at (Size-1, Size-1); obstacles block movement; each
// step costs -1 and reaching the goal rewards +100.
type GridWorld struct {
	Size      int
	Obstacles map[[2]int]bool
}

// NewGridWorld builds a Size x Size world with a deterministic obstacle
// pattern derived from seed (so all devices simulate the same world).
func NewGridWorld(size int, seed int64) *GridWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &GridWorld{Size: size, Obstacles: make(map[[2]int]bool)}
	// Sprinkle obstacles on ~15% of cells, never on start or goal.
	for x := 0; x < size; x++ {
		for y := 0; y < size; y++ {
			if x == 0 && y == 0 || x == size-1 && y == size-1 {
				continue
			}
			if rng.Float64() < 0.15 {
				w.Obstacles[[2]int{x, y}] = true
			}
		}
	}
	return w
}

// state indexes a cell.
func (w *GridWorld) state(x, y int) int { return y*w.Size + x }

// States is the size of the state space.
func (w *GridWorld) States() int { return w.Size * w.Size }

// Step applies an action from (x, y); moves into walls or obstacles keep
// the agent in place. It returns the new position, the reward, and
// whether the episode ended (goal reached).
func (w *GridWorld) Step(x, y int, a Action) (nx, ny int, reward float64, done bool) {
	nx, ny = x, y
	switch a {
	case Up:
		ny--
	case Down:
		ny++
	case Left:
		nx--
	case Right:
		nx++
	}
	if nx < 0 || ny < 0 || nx >= w.Size || ny >= w.Size || w.Obstacles[[2]int{nx, ny}] {
		nx, ny = x, y
	}
	if nx == w.Size-1 && ny == w.Size-1 {
		return nx, ny, 100, true
	}
	return nx, ny, -1, false
}

// Params are the training hyperparameters; Alpha (the learning rate) is
// the one the paper's application searches for.
type Params struct {
	// Alpha is the learning rate in (0, 1].
	Alpha float64 `json:"alpha"`
	// Gamma is the discount factor.
	Gamma float64 `json:"gamma"`
	// Epsilon is the exploration rate.
	Epsilon float64 `json:"epsilon"`
	// Episodes to train.
	Episodes int `json:"episodes"`
	// MaxSteps per episode before it is cut off.
	MaxSteps int `json:"maxSteps"`
	// Seed makes the run deterministic.
	Seed int64 `json:"seed"`
	// GridSize of the simulated world.
	GridSize int `json:"gridSize"`
}

// Outcome summarizes one training run.
type Outcome struct {
	Params Params `json:"params"`
	// Aborted reports an early abort (the paper's interactive search: a
	// user watching the agent may abort a hyperparameter case whose
	// agent fails to learn).
	Aborted bool `json:"aborted,omitempty"`
	// EpisodesRun counts episodes actually executed (< Episodes when
	// aborted).
	EpisodesRun int `json:"episodesRun"`
	// Steps is the total number of simulation steps executed (the
	// throughput unit of Table 2).
	Steps int `json:"steps"`
	// AvgStepsToGoal averages the episode lengths over the final quarter
	// of training: lower is better learning.
	AvgStepsToGoal float64 `json:"avgStepsToGoal"`
	// SuccessRate is the fraction of final-quarter episodes that reached
	// the goal within MaxSteps.
	SuccessRate float64 `json:"successRate"`
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Alpha > 1 {
		return fmt.Errorf("qlearn: alpha %v outside (0,1]", p.Alpha)
	}
	if p.Gamma < 0 || p.Gamma > 1 {
		return fmt.Errorf("qlearn: gamma %v outside [0,1]", p.Gamma)
	}
	if p.Epsilon < 0 || p.Epsilon > 1 {
		return fmt.Errorf("qlearn: epsilon %v outside [0,1]", p.Epsilon)
	}
	if p.Episodes <= 0 || p.MaxSteps <= 0 || p.GridSize < 2 {
		return fmt.Errorf("qlearn: non-positive episodes/steps/grid")
	}
	return nil
}

// Progress reports one finished training episode to an observer.
type Progress struct {
	// Episode index, 0-based.
	Episode int
	// Steps the episode took.
	Steps int
	// Reached reports whether the goal was reached within MaxSteps.
	Reached bool
}

// Train runs tabular Q-learning with the given hyperparameters and
// returns the outcome. It is the processing function Pando distributes:
// deterministic for a given Params value.
func Train(p Params) (Outcome, error) {
	return TrainInteractive(p, nil)
}

// TrainInteractive trains like Train but invokes observe after every
// episode; observe returning false aborts the run early, mirroring the
// paper's interactive hyperparameter search where the user early-aborts a
// case whose agent fails to learn (§4.1). The partial outcome is
// returned with Aborted set.
func TrainInteractive(p Params, observe func(Progress) bool) (Outcome, error) {
	if err := p.Validate(); err != nil {
		return Outcome{}, err
	}
	world := NewGridWorld(p.GridSize, p.Seed)
	rng := rand.New(rand.NewSource(p.Seed + 1))
	q := make([][NumActions]float64, world.States())

	totalSteps := 0
	lastQuarter := p.Episodes - p.Episodes/4
	var finalSteps, finalSuccesses, finalEpisodes int
	var aborted bool
	var episodesRun int

	for ep := 0; ep < p.Episodes; ep++ {
		x, y := 0, 0
		steps := 0
		reached := false
		for ; steps < p.MaxSteps; steps++ {
			s := world.state(x, y)
			var a Action
			if rng.Float64() < p.Epsilon {
				a = Action(rng.Intn(NumActions))
			} else {
				a = argmax(q[s])
			}
			nx, ny, r, done := world.Step(x, y, a)
			ns := world.state(nx, ny)
			best := q[ns][argmax(q[ns])]
			target := r
			if !done {
				target += float64(p.Gamma * best)
			}
			q[s][a] += float64(p.Alpha * (target - q[s][a]))
			x, y = nx, ny
			if done {
				steps++
				reached = true
				break
			}
		}
		totalSteps += steps
		if ep >= lastQuarter {
			finalEpisodes++
			finalSteps += steps
			if reached {
				finalSuccesses++
			}
		}
		episodesRun = ep + 1
		if observe != nil && !observe(Progress{Episode: ep, Steps: steps, Reached: reached}) {
			aborted = true
			break
		}
	}

	out := Outcome{Params: p, Steps: totalSteps, Aborted: aborted, EpisodesRun: episodesRun}
	if finalEpisodes > 0 {
		out.AvgStepsToGoal = float64(finalSteps) / float64(finalEpisodes)
		out.SuccessRate = float64(finalSuccesses) / float64(finalEpisodes)
	}
	return out, nil
}

func argmax(qs [NumActions]float64) Action {
	best := Action(0)
	for a := 1; a < NumActions; a++ {
		if qs[a] > qs[best] {
			best = Action(a)
		}
	}
	return best
}

// SweepAlphas builds the hyperparameter search inputs: one Params per
// candidate learning rate, sharing all other settings.
func SweepAlphas(alphas []float64, base Params) []Params {
	out := make([]Params, 0, len(alphas))
	for _, a := range alphas {
		p := base
		p.Alpha = a
		out = append(out, p)
	}
	return out
}

// Best picks the outcome with the highest success rate, breaking ties by
// fewer average steps to goal.
func Best(outcomes []Outcome) (Outcome, bool) {
	if len(outcomes) == 0 {
		return Outcome{}, false
	}
	best := outcomes[0]
	for _, o := range outcomes[1:] {
		if o.SuccessRate > best.SuccessRate ||
			(o.SuccessRate == best.SuccessRate && o.AvgStepsToGoal < best.AvgStepsToGoal) {
			best = o
		}
	}
	return best, true
}

// AbortIfNotLearning returns an observer that simulates the watching
// user: if, after grace episodes, no episode in the last grace window
// reached the goal, the case is aborted.
func AbortIfNotLearning(grace int) func(Progress) bool {
	if grace < 1 {
		grace = 1
	}
	window := make([]bool, 0, grace)
	return func(pr Progress) bool {
		window = append(window, pr.Reached)
		if len(window) > grace {
			window = window[1:]
		}
		if pr.Episode+1 < grace {
			return true
		}
		for _, ok := range window {
			if ok {
				return true
			}
		}
		return false
	}
}
