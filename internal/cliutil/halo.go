// Package cliutil holds flag validation shared by the command-line
// front ends, so jetsim and platforms reject a nonsensical explicit
// flag identically — at parse time, before any solver state is built.
// Contradictions between flags (-fresh with -halo-depth k > 1) are not
// checked here: both CLIs bind their flags into a core.Config, and
// Config.Canonical is the one place a run description is judged.
package cliutil

import (
	"flag"
	"fmt"
)

// explicitPositive lists the integer flags whose zero value only means
// "default" while it is the untouched default: given explicitly they
// must be >= 1. The value is the error format.
var explicitPositive = map[string]string{
	"reduce-every": "-reduce-every must be a positive cadence in steps, got %d",
	"halo-depth":   "-halo-depth must be >= 1 (1 = fresh per-stage exchange, k > 1 = exchange every k-th step), got %d",
	"reduce-group": "-reduce-group must be >= 1 (1 = flat allreduce), got %d",
}

// CheckExplicit validates the flags of fs that were given explicitly
// (flag.Visit saw them) and returns the first violation.
func CheckExplicit(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if format, ok := explicitPositive[f.Name]; ok && err == nil {
			if v := f.Value.(flag.Getter).Get().(int); v < 1 {
				err = fmt.Errorf(format, v)
			}
		}
	})
	return err
}
