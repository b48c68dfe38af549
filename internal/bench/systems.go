// Package bench implements the BP-Wrapper paper's evaluation (Section IV):
// the five tested system configurations of Table I and one experiment
// function per table and figure, each returning typed rows and able to
// print itself in the paper's shape.
//
// Absolute numbers will differ from the paper's 2007-era Itanium SMP and
// Xeon hosts; the experiments are designed so the *shapes* reproduce: who
// wins, by what rough factor, and where the crossovers fall.
package bench

import (
	"fmt"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// System is one tested configuration from Table I of the paper.
type System struct {
	// Name is the paper's system name (pgClock, pg2Q, pgBat, pgPre,
	// pgBatPre).
	Name string

	// Policy is the replacement algorithm name in package replacer.
	Policy string

	// Batching and Prefetching select the BP-Wrapper techniques.
	Batching    bool
	Prefetching bool

	// FlatCombining selects the flat-combining commit path, the
	// beyond-the-paper extension measured by the combine experiment. Not
	// part of Table I.
	FlatCombining bool
}

// The five systems of Table I.
var (
	// SystemClock is stock PostgreSQL 8.2's configuration: the clock
	// algorithm, lock-free on hits — the scalability optimum the paper
	// measures everything against.
	SystemClock = System{Name: "pgClock", Policy: "clock"}

	// System2Q replaces clock with 2Q and no contention reduction: the
	// paper's baseline for an advanced algorithm naively integrated.
	System2Q = System{Name: "pg2Q", Policy: "2q"}

	// SystemBat is pg2Q plus the batching technique.
	SystemBat = System{Name: "pgBat", Policy: "2q", Batching: true}

	// SystemPre is pg2Q plus the prefetching technique.
	SystemPre = System{Name: "pgPre", Policy: "2q", Prefetching: true}

	// SystemBatPre enables both techniques: the full BP-Wrapper.
	SystemBatPre = System{Name: "pgBatPre", Policy: "2q", Batching: true, Prefetching: true}

	// SystemFC is pgBat with the flat-combining commit path — the
	// beyond-the-paper configuration of the combine experiment. It is not
	// in Systems(): Table I has exactly the paper's five rows.
	SystemFC = System{Name: "pgBatFC", Policy: "2q", Batching: true, FlatCombining: true}
)

// Systems returns the five configurations in the paper's order.
func Systems() []System {
	return []System{SystemClock, System2Q, SystemBat, SystemPre, SystemBatPre}
}

// SystemByName resolves a system by its Table I name.
func SystemByName(name string) (System, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("bench: unknown system %q", name)
}

// WithPolicy returns a copy of the system using a different replacement
// algorithm; used by the policy-independence ablation (the paper reports
// repeating its experiments with LIRS and MQ in place of 2Q).
func (s System) WithPolicy(policy string) System {
	s.Policy = policy
	s.Name = s.Name + "/" + policy
	return s
}

// WrapperConfig materialises the system's core.Config with the paper's
// queue tuning (size 64, threshold 32) unless overridden by the caller.
func (s System) WrapperConfig(queueSize, batchThreshold int) core.Config {
	return core.Config{
		Batching:       s.Batching,
		Prefetching:    s.Prefetching,
		FlatCombining:  s.FlatCombining,
		QueueSize:      queueSize,
		BatchThreshold: batchThreshold,
	}
}

// policyFactory returns the constructor for the system's replacement
// policy.
func (s System) policyFactory() (replacer.Factory, error) {
	f, ok := replacer.Factories()[s.Policy]
	if !ok {
		return nil, fmt.Errorf("bench: system %s uses unknown policy %q", s.Name, s.Policy)
	}
	return f, nil
}

// NewPool builds a buffer pool of the given frame count for this system.
// queueSize/batchThreshold of zero mean the paper's defaults.
func (s System) NewPool(frames int, device storage.Device, queueSize, batchThreshold int) (*buffer.Pool, error) {
	f, err := s.policyFactory()
	if err != nil {
		return nil, err
	}
	return buffer.New(buffer.Config{
		Frames:        frames,
		PolicyFactory: f,
		Wrapper:       s.WrapperConfig(queueSize, batchThreshold),
		Device:        device,
	}), nil
}

// buildPoolObs constructs a pool with an explicit wrapper configuration
// plus live observability: when o.Obs is set the pool gets per-shard
// flight recorders and takes over the registry (the previous point's
// collectors are cleared), so a `bpbench -obs` listener always serves the
// pool of the point currently running. With o.Obs nil there is no
// recorder, no registration and no overhead.
func buildPoolObs(s System, frames int, wcfg core.Config, o Options) (*buffer.Pool, error) {
	f, err := s.policyFactory()
	if err != nil {
		return nil, err
	}
	cfg := buffer.Config{
		Frames:        frames,
		PolicyFactory: f,
		Wrapper:       wcfg,
		Device:        storage.NewNullDevice(),
	}
	if o.Obs != nil {
		cfg.RecorderSize = 4096
	}
	pool := buffer.New(cfg)
	if o.Obs != nil {
		o.Obs.Clear()
		pool.RegisterObs(o.Obs)
	}
	return pool, nil
}
