package core

import (
	"fmt"
	"time"
)

// DefaultOptions returns the recommended starting configuration:
// automatic algorithm routing, serial execution, no deadline, every
// optimization enabled. Prefer it over a zero literal when building
// options programmatically — the constructor makes the defaults
// explicit and survives future field additions.
func DefaultOptions() Options {
	return Options{Algorithm: AlgoAuto, Workers: 1}
}

// Validate reports whether the options are usable as configured,
// failing fast with a descriptive error instead of letting a misuse
// degrade silently (a negative worker count running serial, an ablation
// flag the chosen algorithm never reads, a deadline that already
// passed). Check validates the structural rules on every call; the
// deadline freshness test lives only here because an in-flight check
// whose deadline expires must come back undecided, not erroneous.
func (o Options) Validate() error {
	if err := o.validate(); err != nil {
		return err
	}
	if !o.Deadline.IsZero() && !o.Deadline.After(time.Now()) {
		return fmt.Errorf("core: Options.Deadline %v is in the past; a check started with it can only return undecided", o.Deadline)
	}
	return nil
}

// validate is the structural half of Validate, run by every Check front
// door: rules that are wrong regardless of when the check starts.
func (o Options) validate() error {
	switch o.Algorithm {
	case AlgoAuto, AlgoNaive, AlgoOpt, AlgoFDOnly, AlgoExhaustive:
	default:
		return fmt.Errorf("core: unknown algorithm %v", o.Algorithm)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Options.Workers is %d; use 0 or 1 for serial execution, >1 for a worker pool", o.Workers)
	}
	if o.DisablePrecheck && !(o.Algorithm == AlgoAuto || o.Algorithm == AlgoNaive || o.Algorithm == AlgoOpt) {
		return fmt.Errorf("core: DisablePrecheck only affects the clique algorithms (AlgoAuto/AlgoNaive/AlgoOpt), not %v", o.Algorithm)
	}
	if o.DisableCoverFilter && !(o.Algorithm == AlgoAuto || o.Algorithm == AlgoOpt) {
		return fmt.Errorf("core: DisableCoverFilter only affects OptDCSat (AlgoAuto/AlgoOpt), not %v", o.Algorithm)
	}
	return nil
}
